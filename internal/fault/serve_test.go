package fault

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseServe(t *testing.T) {
	spec, err := Parse("diskslow:p=0.5,mean=2ms;diskerr:count=8;measure:p=0.3;handler:delay=5ms,p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DiskSlow == nil || spec.DiskSlow.P != 0.5 || spec.DiskSlow.Mean != 2*time.Millisecond || spec.DiskSlow.Jitter != 0.5 {
		t.Errorf("diskslow: %+v", spec.DiskSlow)
	}
	if spec.DiskErr == nil || spec.DiskErr.Count != 8 || spec.DiskErr.P != 0 {
		t.Errorf("diskerr: %+v", spec.DiskErr)
	}
	if spec.MeasureErr == nil || spec.MeasureErr.P != 0.3 {
		t.Errorf("measure: %+v", spec.MeasureErr)
	}
	if spec.Handler == nil || spec.Handler.Delay != 5*time.Millisecond || spec.Handler.P != 0.1 {
		t.Errorf("handler: %+v", spec.Handler)
	}

	// Canonical rendering round-trips through Parse.
	s2, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", spec.String(), err)
	}
	if s2.String() != spec.String() {
		t.Errorf("round-trip changed spec: %q vs %q", s2.String(), spec.String())
	}

	if s, err := Parse(""); err != nil || !s.Empty() {
		t.Errorf("empty spec: (%v, %v)", s, err)
	}

	for _, bad := range []string{
		"diskerr",              // no params
		"diskerr:p=0",          // neither p nor count
		"measure:x=1",          // unknown key
		"diskslow:p=0.5",       // missing mean
		"handler:p=0.5",        // missing delay
		"slowdisk:p=0.5",       // unknown class
		"delay:p=0.2,mean=1ms", // MPI-world class rejected here
		"diskerr:p=0.5,p=0.5",  // duplicate key
		"handler:delay=-1ms",   // negative duration
		"measure:p=1.5",        // probability out of range
	} {
		spec, err := Parse(bad)
		if err == nil {
			err = spec.Only(Serving)
		}
		if err == nil {
			t.Errorf("Parse(%q).Only(Serving): want error", bad)
		}
	}
}

// TestServeInjectorDeterministic: two injectors with identical (spec,
// seed) produce identical decision schedules; a different seed produces
// a different one (for these parameters).
func TestServeInjectorDeterministic(t *testing.T) {
	spec, err := Parse("diskslow:p=0.5,mean=2ms;diskerr:p=0.5;measure:p=0.5;handler:delay=1ms,p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) (disk []time.Duration, errs, meas []bool, handler []time.Duration) {
		i := NewServeInjector(spec, seed, nil)
		for n := 0; n < 64; n++ {
			disk = append(disk, i.DiskDelay())
			errs = append(errs, i.DiskErr() != nil)
			meas = append(meas, i.MeasureErr() != nil)
			handler = append(handler, i.HandlerDelay())
		}
		return
	}
	d1, e1, m1, h1 := draw(7)
	d2, e2, m2, h2 := draw(7)
	for n := range d1 {
		if d1[n] != d2[n] || e1[n] != e2[n] || m1[n] != m2[n] || h1[n] != h2[n] {
			t.Fatalf("same seed diverged at op %d", n)
		}
	}
	_, e3, _, _ := draw(8)
	same := true
	for n := range e1 {
		if e1[n] != e3[n] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 drew identical diskerr schedules (suspicious)")
	}
}

// TestServeInjectorCountBurst: count=N fails exactly the first N
// operations — the chaos gate's breaker-recovery shape.
func TestServeInjectorCountBurst(t *testing.T) {
	spec, err := Parse("measure:count=3;diskerr:count=2")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	i := NewServeInjector(spec, 1, reg)
	for n := 1; n <= 6; n++ {
		err := i.MeasureErr()
		if n <= 3 && !errors.Is(err, ErrInjectedMeasure) {
			t.Errorf("measurement %d: got %v, want injected failure", n, err)
		}
		if n > 3 && err != nil {
			t.Errorf("measurement %d: got %v, want nil after the burst", n, err)
		}
	}
	for n := 1; n <= 4; n++ {
		err := i.DiskErr()
		if n <= 2 && !errors.Is(err, ErrInjectedDisk) {
			t.Errorf("disk read %d: got %v, want injected failure", n, err)
		}
		if n > 2 && err != nil {
			t.Errorf("disk read %d: got %v, want nil after the burst", n, err)
		}
	}
	if got := reg.Counter("fault.serve.measure").Value(); got != 3 {
		t.Errorf("measure counter %d, want 3", got)
	}
	if got := reg.Counter("fault.serve.diskerr").Value(); got != 2 {
		t.Errorf("diskerr counter %d, want 2", got)
	}
}

// TestServeInjectorProbabilityRate: over many draws the injection rate
// tracks p (the u01 stream is uniform enough for a coarse bound).
func TestServeInjectorProbabilityRate(t *testing.T) {
	spec, err := Parse("diskerr:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	i := NewServeInjector(spec, 42, nil)
	const draws = 4096
	fails := 0
	for n := 0; n < draws; n++ {
		if i.DiskErr() != nil {
			fails++
		}
	}
	rate := float64(fails) / draws
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("injection rate %.3f, want ~0.3", rate)
	}
}

func TestServeInjectorNilSafe(t *testing.T) {
	var i *ServeInjector
	if i.DiskDelay() != 0 || i.DiskErr() != nil || i.MeasureErr() != nil || i.HandlerDelay() != 0 {
		t.Error("nil injector must inject nothing")
	}
	if NewServeInjector(Spec{}, 1, nil) != nil {
		t.Error("empty spec must build a nil injector")
	}
	if NewServeInjector(Spec{Delay: &DelaySpec{P: 1, Mean: time.Millisecond}}, 1, nil) != nil {
		t.Error("a spec with no Serving class must build a nil injector")
	}
}

// TestServeInjectorJitterBounds: injected disk delays stay inside
// mean·[1-jitter, 1+jitter].
func TestServeInjectorJitterBounds(t *testing.T) {
	spec, err := Parse("diskslow:p=1,mean=10ms,jitter=0.5")
	if err != nil {
		t.Fatal(err)
	}
	i := NewServeInjector(spec, 3, nil)
	for n := 0; n < 256; n++ {
		d := i.DiskDelay()
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("delay %v outside [5ms,15ms]", d)
		}
	}
}
