package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpi.send.count").Add(12)
	r.Histogram("mpi.collective.bcast.bytes").Observe(640)
	snap := r.Snapshot()

	m := NewManifest("npbrun")
	m.Benchmark, m.Class, m.Procs, m.Trips = "BT", "S", 4, 10
	m.WallSeconds = 1.25
	m.Extra = map[string]string{"net": "false"}
	m.Metrics = &snap

	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "npbrun" || got.Benchmark != "BT" || got.Procs != 4 || got.Trips != 10 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.GoVersion == "" || got.OS == "" || got.Arch == "" || got.CPUs < 1 {
		t.Errorf("toolchain fields empty: %+v", got)
	}
	if got.Metrics == nil {
		t.Fatal("metrics snapshot lost")
	}
	if c, ok := got.Metrics.Counter("mpi.send.count"); !ok || c.Value != 12 {
		t.Errorf("counter lost: %+v %v", c, ok)
	}
	if h, ok := got.Metrics.Histogram("mpi.collective.bcast.bytes"); !ok || h.Sum != 640 {
		t.Errorf("histogram lost: %+v %v", h, ok)
	}
}

// TestManifestDeterministicBytes pins that two identical manifests (no
// caller-supplied timestamps) serialize byte-identically, including the
// Extra map.
func TestManifestDeterministicBytes(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("b").Inc()
		r.Counter("a").Inc()
		snap := r.Snapshot()
		m := NewManifest("couple")
		m.Extra = map[string]string{"z": "1", "a": "2", "m": "3"}
		m.Metrics = &snap
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Errorf("manifest serialization not deterministic:\n%s\n%s", a, b)
	}
}

func TestManifestJSONShape(t *testing.T) {
	m := NewManifest("npbrun")
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	for _, key := range []string{"tool", "go_version", "os", "arch", "cpus"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("manifest missing %q:\n%s", key, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "\n") {
		t.Error("manifest should be indented for humans")
	}
}

// TestManifestHealthRoundTrip pins that the fault-and-degradation record
// survives serialization and that fault-free manifests omit it entirely
// (keeping clean-run output byte-identical to pre-fault manifests).
func TestManifestHealthRoundTrip(t *testing.T) {
	m := NewManifest("couple")
	var clean bytes.Buffer
	if err := m.WriteJSON(&clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "health") {
		t.Errorf("clean manifest must not mention health:\n%s", clean.String())
	}

	m.Health = &Health{
		FaultSpec:            "delay:p=0.2,mean=1ms,jitter=0.5",
		FaultSeed:            7,
		FaultTally:           "delays=3 drops=0 lost=0 straggles=0 collectives=0 crashes=0",
		ScheduleDigest:       "00ab-3",
		FaultEvents:          []string{"delay rank=0 msg#1"},
		Retries:              []string{"window B|C attempt 1: injected"},
		FailedWindows:        []string{"B|C: lost"},
		DegradedCoefficients: []string{"B chain=2 mode=partial"},
		Errors:               nil,
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health == nil {
		t.Fatal("health record lost")
	}
	if got.Health.FaultSeed != 7 || got.Health.FaultSpec != m.Health.FaultSpec {
		t.Errorf("health fields lost: %+v", got.Health)
	}
	if len(got.Health.Retries) != 1 || len(got.Health.DegradedCoefficients) != 1 {
		t.Errorf("health lists lost: %+v", got.Health)
	}
}

func TestReadManifestFileErrors(t *testing.T) {
	if _, err := ReadManifestFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should error")
	}
}
