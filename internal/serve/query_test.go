package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/predict"
)

// TestParseQueryRejectsEmptyValues is the empty-parameter fix's
// regression test: an explicitly empty value (?chains=, bare ?chains, or
// whitespace) must 400 like a typo'd parameter name does, not silently
// answer with the default. Before the fix, ?chains= fell through the
// get() fallback to chain length 2 — the service answered a question the
// client never asked.
func TestParseQueryRejectsEmptyValues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		qs      string
		wantErr string
	}{
		{"empty chains", "chains=", "empty value"},
		{"bare param", "chains", "empty value"},
		{"whitespace value", "procs=%20%20", "empty value"},
		{"empty bench", "bench=", "empty value"},
		{"empty backend", "backend=", "empty value"},
		{"empty among valid", "bench=BT&blocks=", "empty value"},
		{"unknown param still rejected", "chians=2", "unknown parameter"},
		{"typo'd grid", "bench=BT&gird=6", `unknown parameter "gird"`},
		{"repeated param", "grid=6&grid=8", `parameter "grid" given 2 times`},
		{"valid defaults untouched", "", ""},
		{"valid explicit", "bench=BT&chains=2,5&blocks=2", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := url.ParseQuery(tc.qs)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ParseQuery(v)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ParseQuery(%q) = %v, want success", tc.qs, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseQuery(%q) succeeded, want error containing %q", tc.qs, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseQuery(%q) = %v, want error containing %q", tc.qs, err, tc.wantErr)
			}
		})
	}
}

// TestFamilyKeyScopedToBackendPin: the family identity must include the
// backend pin exactly as the exact-key identity does, so the degradation
// ladder never crosses provenance pins.
func TestFamilyKeyScopedToBackendPin(t *testing.T) {
	base := Query{Query: predict.Query{Bench: "BT", Class: "S", Procs: 4, Grid: 8}}
	pinned := base
	pinned.Backend = "analytic"
	if base.FamilyKey() == pinned.FamilyKey() {
		t.Errorf("pinned family %q equals unpinned family — stale answers can cross backend pins", pinned.FamilyKey())
	}
	other := pinned
	other.Chains = []int{5}
	other.Blocks = 9
	if pinned.FamilyKey() != other.FamilyKey() {
		t.Errorf("same-pin neighbors split families: %q != %q", pinned.FamilyKey(), other.FamilyKey())
	}
}

// TestEncodeRoundTrips: ParseQuery(Encode()) must be the identity — the
// peer-fill protocol re-parses the encoded query on the owner, and any
// drift would make the owner answer a different key than it was asked.
func TestEncodeRoundTrips(t *testing.T) {
	for _, qs := range []string{
		"",
		warmQS,
		"bench=FT&class=W&procs=2&chains=2,4&backend=analytic",
		"bench=LU&procs=1&grid=12&trips=7",
	} {
		v, err := url.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(v)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", qs, err)
		}
		v2, err := url.ParseQuery(q.Encode())
		if err != nil {
			t.Fatalf("reparse Encode(%q): %v", qs, err)
		}
		q2, err := ParseQuery(v2)
		if err != nil {
			t.Fatalf("ParseQuery(Encode(%q)) = %v", qs, err)
		}
		if q.Key() != q2.Key() {
			t.Errorf("round trip changed key: %q -> %q", q.Key(), q2.Key())
		}
	}
}

// TestDegradationLadderRespectsBackendPin is the stale-family fix's
// end-to-end regression test: a warm unpinned (measured-provenance)
// answer sits in the stale cache; the service then becomes unhealthy. An
// unpinned neighbor in the family degrades to that answer — but a
// ?backend=analytic neighbor must NOT, because the only thing the ladder
// could offer it is an answer of the wrong provenance. Before the fix
// FamilyKey omitted the pin and the pinned request got the measured
// stale answer tagged stale-nearby.
func TestDegradationLadderRespectsBackendPin(t *testing.T) {
	reg := obs.NewRegistry()
	g := guard.New(guard.Config{StaleCap: 8})
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.analyze
	failing := false
	srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		if failing {
			return predict.Prediction{}, errors.New("synthetic backend outage")
		}
		return inner(ctx, q)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy warm answer populates the ladder under the unpinned family.
	get(t, ts.URL, "/predict?"+warmQS, http.StatusOK)
	failing = true

	// Same family, different blocks — the ladder's "nearby" shape.
	neighborQS := strings.Replace(warmQS, "blocks=2", "blocks=1", 1)

	// Unpinned neighbor (same family, different blocks): degrades.
	resp, err := http.Get(ts.URL + "/predict?" + neighborQS)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != guard.ModeStaleNearby {
		t.Fatalf("unpinned neighbor: status %d X-Degraded %q, want 200 %q",
			resp.StatusCode, resp.Header.Get("X-Degraded"), guard.ModeStaleNearby)
	}

	// Pinned neighbor: the stale answer's provenance does not match the
	// pin, so the ladder must refuse and the outage surface as a 5xx.
	resp, err = http.Get(ts.URL + "/predict?" + neighborQS + "&backend=cached")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("backend-pinned neighbor served a degraded answer of foreign provenance (X-Degraded %q)",
			resp.Header.Get("X-Degraded"))
	}
	if got := resp.Header.Get("X-Degraded"); got != "" {
		t.Errorf("pinned request tagged X-Degraded %q, want no degradation", got)
	}
}

// TestKeyBytes pins the rendered keys: the singleflight, stale-answer and
// cluster-ownership identity of a query. serve.Query's key is
// predict.Query's plus the backend pin, and neither may change bytes.
func TestKeyBytes(t *testing.T) {
	for qs, want := range map[string]string{
		"":                                      "BT.S.p4 g0 t60 b3 x1 c2",
		"bench=lu&class=W&procs=8&chains=4,3,3": "LU.W.p8 g0 t20 b3 x1 c3,4",
		"bench=BT&grid=6&trips=2&blocks=2&passes=4": "BT.S.p4 g6 t2 b2 x4 c2",
		"bench=BT&grid=8&backend=Analytic":          "BT.S.p4 g8 t60 b3 x1 c2 kanalytic",
	} {
		v, err := url.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(v)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		if got := q.Key(); got != want {
			t.Errorf("%q keys as %q, want %q", qs, got, want)
		}
		if q.Backend == "" && q.PredictQuery().Key() != want {
			t.Errorf("%q: predict.Query keys as %q, want serve.Query's %q", qs, q.PredictQuery().Key(), want)
		}
	}
}
