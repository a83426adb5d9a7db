package policy_test

import (
	"strings"
	"testing"

	"adaptbf/internal/config"
	"adaptbf/internal/policy"
	"adaptbf/internal/sim"
)

// TestTableComplete: every sim.Policy constant has exactly one row, at
// its own index; names and spellings are unique across rows; and every
// spelling round-trips flag → config.ParsePolicy → Policy → flag.
func TestTableComplete(t *testing.T) {
	consts := []sim.Policy{sim.NoBW, sim.StaticBW, sim.AdapTBF, sim.SFQ, sim.GIFT, sim.EDT}
	rows := policy.All()
	if len(rows) != len(consts) {
		t.Fatalf("table has %d rows for %d policy constants", len(rows), len(consts))
	}
	names := map[string]bool{}
	spellings := map[string]bool{}
	for i, p := range consts {
		d, ok := policy.Lookup(p)
		if !ok || d.Policy != p || rows[i].Policy != p {
			t.Fatalf("constant %d: Lookup = %+v, %v; row %d holds %v", int(p), d, ok, i, rows[i].Policy)
		}
		if d.Name == "" || names[d.Name] || p.String() != d.Name {
			t.Errorf("%v: paper name %q empty, duplicated, or not what String prints (%q)", p, d.Name, p.String())
		}
		names[d.Name] = true
		for _, s := range append([]string{d.Flag}, d.Aliases...) {
			if s == "" || s != strings.ToLower(s) || spellings[s] {
				t.Errorf("%v: spelling %q empty, not lower-case, or claimed twice", p, s)
			}
			spellings[s] = true
			got, err := config.ParsePolicy(" " + strings.ToUpper(s) + " ")
			if err != nil || got != p {
				t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, p)
			}
			if back, _ := policy.Lookup(got); back.Flag != d.Flag {
				t.Errorf("%q → %v → flag %q, want %q", s, got, back.Flag, d.Flag)
			}
		}
		if !strings.Contains(policy.Flags(), d.Flag) {
			t.Errorf("Flags() %q omits %q", policy.Flags(), d.Flag)
		}
	}
	for _, p := range []policy.Policy{-1, policy.Policy(len(rows))} {
		if _, ok := policy.Lookup(p); ok || !strings.HasPrefix(p.String(), "policy(") {
			t.Errorf("out-of-table policy %d: Lookup ok=%v, String %q", int(p), ok, p.String())
		}
	}
	if _, err := policy.Parse("bogus"); err == nil || !strings.Contains(err.Error(), policy.Flags()) {
		t.Errorf("Parse(bogus) = %v, want an error listing %q", err, policy.Flags())
	}
}

// TestNodeShares pins the one arithmetic every policy's per-job
// quantity comes from.
func TestNodeShares(t *testing.T) {
	s := policy.NewNodeShares(map[string]int{"a": 1, "b": 3})
	if s.Nodes("a") != 1 || s.Nodes("b") != 3 || s.Nodes("ghost") != 1 {
		t.Fatalf("Nodes: a=%d b=%d ghost=%d", s.Nodes("a"), s.Nodes("b"), s.Nodes("ghost"))
	}
	if s.Weight("b") != 3 || s.Weight("ghost") != 1 {
		t.Fatalf("Weight: b=%v ghost=%v", s.Weight("b"), s.Weight("ghost"))
	}
	rates := s.ByteRates(400) // 400 tokens/s ≈ 400 MiB/s to split 1:3
	if got, want := rates("a"), 100.0*(1<<20); got != want {
		t.Fatalf("ByteRates(a) = %v, want %v", got, want)
	}
	if got, want := rates("b"), 300.0*(1<<20); got != want {
		t.Fatalf("ByteRates(b) = %v, want %v", got, want)
	}
	if rates("ghost") != 0 {
		t.Fatal("an unlisted job must stay unpaced (rate 0)")
	}
	if policy.NewNodeShares(nil).ByteRates(400)("a") != 0 {
		t.Fatal("an empty table must leave every job unpaced")
	}
}
