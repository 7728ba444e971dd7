package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRenderGolden renders the committed couple manifest (a crash-injected
// BT study: health, traffic, collectives, per-kernel and harness tables),
// plain and with -all, and the committed kcserved flight dump with
// -requests, each against its golden.
func TestRenderGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"manifest.golden", []string{"testdata/manifest.json"}},
		{"manifest_all.golden", []string{"-all", "testdata/manifest.json"}},
		{"requests.golden", []string{"-requests", "testdata/flight.json"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err != nil {
			t.Fatalf("kcreport %v: %v (stderr %q)", tc.args, err, stderr.String())
		}
		golden := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("kcreport %v drifted from %s:\n%s\nwant:\n%s", tc.args, golden, got, want)
		}
	}
}

// TestRequestsTraceOut exports the flight dump as a trace-event file next
// to the same rendering.
func TestRequestsTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flight-perfetto.json")
	var stdout bytes.Buffer
	if err := run([]string{"-requests", "-trace-out", out, "testdata/flight.json"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/requests.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want)+"wrote Perfetto trace: "+out+"\n" {
		t.Errorf("-trace-out changed the rendering:\n%s", got)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
	}
}

// TestUsageErrors: a wrong argument count and an unknown flag are returned
// errors, which main turns into exit status 1; -h is flag.ErrHelp, exit 0.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"a.json", "b.json"}, {"-requests"}, {"-nope", "a.json"}} {
		err := run(args, io.Discard, io.Discard)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("kcreport %v: err = %v, want a usage error", args, err)
		}
	}
	err := run([]string{"a.json", "b.json"}, io.Discard, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "usage: kcreport [-all] <manifest.json>") {
		t.Errorf("wrong argument count: err = %v, want the usage line", err)
	}
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) || !strings.Contains(stderr.String(), "-requests") {
		t.Errorf("-h: err = %v, stderr %q", err, stderr.String())
	}
	if err := run([]string{"testdata/missing.json"}, io.Discard, io.Discard); err == nil {
		t.Error("a missing manifest must be an error")
	}
}
