package wire

import "reflect"

// zero resets *v (v must be a non-nil pointer) to its zero value. Exchange
// uses it before every decode attempt: gob omits zero-valued fields, so
// decoding a retried reply into a struct still holding the previous
// attempt's fields would silently merge stale state. A value with a Reset
// method resets itself instead, which lets it keep a buffer gob decodes into
// (gob fills a []byte in the capacity it finds).
func zero(v any) {
	if r, ok := v.(interface{ Reset() }); ok {
		r.Reset()
		return
	}
	if v == nil {
		return
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return
	}
	rv.Elem().Set(reflect.Zero(rv.Elem().Type()))
}
