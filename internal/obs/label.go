package obs

import "strings"

// Label decorates a metric name with key="value" label pairs in the
// canonical `name{k1="v1",k2="v2"}` form, so one Registry can hold the
// same logical metric for many instances, e.g. `requests{host="a"}`.
// The registry itself treats the decorated name as an opaque string —
// labels are a naming convention, not a registry feature — which keeps
// the lock-free metric hot path untouched.
//
// Pairs are emitted in argument order; callers wanting a canonical
// ordering should pass keys sorted. Backslashes and double quotes inside
// a value are escaped so the rendered name survives a round trip through
// the snapshot JSON and line-oriented scrapes. An odd trailing key is
// ignored rather than panicking: metric naming must never take a
// campaign down.
func Label(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(kv))
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabel undoes Label: it returns the bare metric name and the label
// pairs in emission order. Names without a label block come back
// unchanged with nil pairs; a malformed block (no closing brace) is
// treated as part of the name rather than rejected, mirroring the
// registry's opaque-string stance.
func SplitLabel(decorated string) (name string, kv []string) {
	open := strings.IndexByte(decorated, '{')
	if open < 0 || !strings.HasSuffix(decorated, "}") {
		return decorated, nil
	}
	name = decorated[:open]
	body := decorated[open+1 : len(decorated)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return decorated, nil // malformed: keep opaque
		}
		key := body[:eq]
		rest := body[eq+2:]
		val, n, ok := unescapeLabelValue(rest)
		if !ok {
			return decorated, nil
		}
		kv = append(kv, key, val)
		body = rest[n:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if len(body) > 0 {
			return decorated, nil
		}
	}
	return name, kv
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, `\"`) {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' {
			b.WriteByte('\\')
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// unescapeLabelValue reads an escaped value up to its closing quote and
// reports how many input bytes (closing quote included) it consumed.
func unescapeLabelValue(s string) (val string, consumed int, ok bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, false
			}
			i++
			b.WriteByte(s[i])
		case '"':
			return b.String(), i + 1, true
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, false
}
