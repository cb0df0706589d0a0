package main

import (
	"testing"

	"repro/internal/analysis/suite"
)

// TestSmokeInternalPacket runs the full suite over the packet codec — the
// most invariant-dense package in the tree — and requires a clean exit.
func TestSmokeInternalPacket(t *testing.T) {
	if code := standaloneMain([]string{"../../internal/packet"}, suite.Analyzers()); code != 0 {
		t.Fatalf("airvet over internal/packet: exit %d, want 0", code)
	}
}

// TestBadFixtureFails seeds a deterministic package with a wall-clock read
// and requires airvet to refuse it with exit status 1.
func TestBadFixtureFails(t *testing.T) {
	if code := standaloneMain([]string{"testdata/bad"}, suite.Analyzers()); code != 1 {
		t.Fatalf("airvet over testdata/bad: exit %d, want 1 (a finding)", code)
	}
}

// TestUnknownAnalyzerRejected mirrors the -run flag contract: asking for an
// analyzer that does not exist is a usage error, not a silent no-op.
func TestUnknownAnalyzerRejected(t *testing.T) {
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("selectAnalyzers(nosuch): expected error, got nil")
	}
	as, err := selectAnalyzers("determinism,frameconst")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if len(as) != 2 {
		t.Fatalf("selectAnalyzers: got %d analyzers, want 2", len(as))
	}
}
