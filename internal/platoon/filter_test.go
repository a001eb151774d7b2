package platoon

import (
	"math"
	"math/rand/v2"
	"testing"

	"comfase/internal/mac"
	"comfase/internal/msg"
	"comfase/internal/nic"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
	"comfase/internal/vehicle"
	"comfase/internal/wave1609"
)

// memberView is everything handleRx may write, in comparable bits.
type memberView struct {
	leader, pred [6]uint64
	rx           uint64
}

func kinBits(s KinState) [6]uint64 {
	valid := uint64(0)
	if s.Valid {
		valid = 1
	}
	return [6]uint64{math.Float64bits(s.Pos), math.Float64bits(s.Speed), math.Float64bits(s.Accel),
		math.Float64bits(s.Length), uint64(s.Time), valid}
}

func viewOf(m *Member) memberView {
	return memberView{leader: kinBits(m.leaderCache), pred: kinBits(m.predCache), rx: m.rxCount}
}

// TestReceiveFilterContract pins the promise behind the member's receive
// filter: the medium never hands the handler a frame the filter rejects,
// so handleRx must leave the leader and predecessor caches and rxCount
// bit-unchanged for every such frame. Frames are random: every platoon ID
// and index around the platoon's, with and without an inline beacon,
// fresh and stale time stamps, and Sybil forgeries claiming the leader's
// or a predecessor's slot under another source.
func TestReceiveFilterContract(t *testing.T) {
	const n = 6
	k := des.NewKernel()
	air, err := nic.NewAir(nic.Config{
		Kernel:   k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	params := DefaultParams("platoon.0")
	members := make([]*Member, n)
	for i := range members {
		veh, err := vehicle.New(vehicle.PaperCar(scratchVehicleID(i)), vehicle.State{Pos: float64(100 - 9*i), Speed: 25})
		if err != nil {
			t.Fatalf("vehicle.New: %v", err)
		}
		cfg := MemberConfig{Kernel: k, Vehicle: veh, Air: air, Params: params, Index: i}
		if i == 0 {
			cfg.Leader = &traffic.SpeedTracker{Maneuver: traffic.ConstantSpeed{Speed: 25}}
		} else {
			cfg.Controller = DefaultCACC()
		}
		if members[i], err = NewMember(cfg); err != nil {
			t.Fatalf("NewMember(%d): %v", i, err)
		}
		members[i].Seed(KinState{Pos: 200, Speed: 25, Time: 5 * des.Second}, KinState{Pos: 150, Speed: 25, Time: 5 * des.Second})
	}

	r := rand.New(rand.NewPCG(1, 2))
	ids := []string{"platoon.0", "platoon.1", "", "platoon.00"}
	rejected, accepted := 0, 0
	for i := 0; i < 20000; i++ {
		f := mac.Frame{Seq: uint64(i), Src: scratchVehicleID(r.IntN(n + 1)), Bits: 424, AC: mac.ACVideo}
		if r.IntN(4) > 0 {
			f.HasBeacon = true
			f.Beacon = msg.Beacon{
				Source:       f.Src,
				SentAt:       des.Time(r.IntN(10)) * des.Second,
				PlatoonID:    ids[r.IntN(len(ids))],
				PlatoonIndex: r.IntN(n+4) - 2,
				Pos:          r.Float64() * 300,
				Speed:        r.Float64() * 40,
				Accel:        r.Float64()*6 - 3,
				Length:       4,
			}
			if r.IntN(4) == 0 {
				// A Sybil forgery: another source claims a slot the
				// receiver reads.
				f.Src = "sybil.vehicle.2"
				f.Beacon.Source = f.Src
				f.Beacon.PlatoonID = "platoon.0"
				f.Beacon.PlatoonIndex = r.IntN(2)
			}
		} else if r.IntN(2) == 0 {
			f.Payload = "command"
		}
		for _, m := range members {
			if m.wants(&f) {
				before := viewOf(m)
				m.handleRx(&f, nic.RxMeta{})
				if viewOf(m) != before {
					accepted++
				}
				continue
			}
			rejected++
			before := viewOf(m)
			m.handleRx(&f, nic.RxMeta{})
			if after := viewOf(m); after != before {
				t.Fatalf("member %d: filter rejects %+v, but handleRx changed %+v to %+v", m.index, f, before, after)
			}
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("%d rejected and %d accepted frames changed a cache: the frames miss a case", rejected, accepted)
	}
}

func scratchVehicleID(i int) string { return "vehicle." + string(rune('1'+i)) }
