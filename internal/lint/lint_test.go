package lint

import (
	"testing"

	"gxplug/internal/lint/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", DeterminismAnalyzer, "det/internal/engine")
}

func TestNilGate(t *testing.T) {
	analysistest.Run(t, "testdata", NilGateAnalyzer, "nilgate/consumer")
}

func TestWireSize(t *testing.T) {
	analysistest.Run(t, "testdata", WireSizeAnalyzer, "wire/internal/gen/ingest")
}

func TestClockCharge(t *testing.T) {
	analysistest.Run(t, "testdata", ClockChargeAnalyzer, "charge/internal/gxplug")
}

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", DirectiveAnalyzer, "directives/a")
}

func TestPkgMatch(t *testing.T) {
	cases := []struct {
		path    string
		targets []string
		want    bool
	}{
		{"gxplug/internal/engine", determinismTargets, true},
		{"gxplug/internal/engine/powergraph", determinismTargets, true},
		{"gxplug/internal/gxplug/synccache", determinismTargets, true},
		{"gxplug/gx", determinismTargets, true},
		{"gxplug/internal/serve", determinismTargets, true},
		{"gxplug/cmd/gxd", determinismTargets, false},
		{"gxplug/internal/engine [gxplug/internal/engine.test]", determinismTargets, true},
		{"det/internal/engine", determinismTargets, true},
		{"gxplug/internal/gen/ingest", determinismTargets, true},
		{"gxplug/internal/graph", determinismTargets, true},
		{"gxplug/internal/par", determinismTargets, true},
		{"gxplug/internal/device", determinismTargets, true},
		{"gxplug/cmd/gxrun", determinismTargets, false},
		{"gxplug/internal/gen/ingest", wireSizeTargets, true},
		{"gxplug/internal/shm", wireSizeTargets, true},
		{"gxplug/internal/gen", wireSizeTargets, false},
	}
	for _, c := range cases {
		if got := pkgMatch(c.path, c.targets); got != c.want {
			t.Errorf("pkgMatch(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	if !clockChargeExact("gxplug/internal/gxplug") {
		t.Errorf("clockChargeExact should match the gxplug package itself")
	}
	if clockChargeExact("gxplug/internal/gxplug/synccache") {
		t.Errorf("clockChargeExact must not match subpackages: they are cost models, not entry points")
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text         string
		name, reason string
		ok           bool
	}{
		{"//gxlint:ordered keys are sorted downstream", "ordered", "keys are sorted downstream", true},
		{"//gxlint:unsized", "unsized", "", true},
		{"/*gxlint:uncharged fail fast*/", "uncharged", "fail fast", true},
		{"// ordinary comment", "", "", false},
		{"//nolint:all", "", "", false},
	}
	for _, c := range cases {
		name, reason, ok := parseDirective(c.text)
		if name != c.name || reason != c.reason || ok != c.ok {
			t.Errorf("parseDirective(%q) = %q, %q, %v; want %q, %q, %v", c.text, name, reason, ok, c.name, c.reason, c.ok)
		}
	}
}
