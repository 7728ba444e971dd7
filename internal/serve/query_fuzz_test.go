package serve

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzQueryRoundTrip: for every URL query ParseQuery takes, the peer-fill
// wire form parses back to the same Query with the same Key — the
// identity Query.Encode promises, so a proxied question cannot drift from
// the local one. The committed corpus under
// testdata/fuzz/FuzzQueryRoundTrip covers defaults, case and whitespace
// folding, repeated and unsorted chains, signed integers and a backend
// pin that needs escaping.
func FuzzQueryRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := ParseQuery(v)
		if err != nil {
			return
		}
		wire := q.Encode()
		back, err := url.ParseQuery(wire)
		if err != nil {
			t.Fatalf("Encode() of %q = %q, which url.ParseQuery refuses: %v", raw, wire, err)
		}
		got, err := ParseQuery(back)
		if err != nil {
			t.Fatalf("ParseQuery(Encode()) of %q refuses %q: %v", raw, wire, err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("ParseQuery(Encode()) of %q = %+v, want %+v (wire %q)", raw, got, q, wire)
		}
		if got.Key() != q.Key() {
			t.Fatalf("round trip of %q moved the key from %q to %q", raw, q.Key(), got.Key())
		}
	})
}
