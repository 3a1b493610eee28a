package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n          int
		pct, value float64
	}{
		{1000, 99, 990}, // p99 leaves ten samples beyond it
		{5000, 99, 4950},
		{100, 90, 90}, // p99 would leave one sample; p90 leaves ten
		{21, 100 * 11.0 / 21, 11},
		{15, 100 * 8.0 / 15, 8}, // too few samples for any tail: the median
		{1, 100, 1},
	}
	for _, c := range cases {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.value {
			t.Errorf("n=%d: got p%v = %v, want p%v = %v", c.n, pct, v, c.pct, c.value)
		}
		if beyond := c.n - int(v); c.n >= 21 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the tail figure", c.n, beyond)
		}
	}
}

// The acceptance rule for run-to-run spread is stated in terms of Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("7 values: got %v %v %v, want 1 3 5", q1, q2, q3)
	}
}

func TestSeededGeneratorsReproducible(t *testing.T) {
	if a, b := seededPerm(5, streamOrder, 84), seededPerm(5, streamOrder, 84); !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two item orders")
	}
	if a, b := seededPerm(5, streamOrder, 84), seededPerm(6, streamOrder, 84); reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same item order")
	}
	za, zb := newZipfKeys(5, streamClient, 56, zipfS), newZipfKeys(5, streamClient, 56, zipfS)
	seen := make([]int, 56)
	for i := 0; i < 20000; i++ {
		k := za.next()
		if k != zb.next() {
			t.Fatal("the same seed gave two zipf sequences")
		}
		seen[k]++
	}
	hottest := za.perm[0]
	for k, n := range seen {
		if n > seen[hottest] {
			t.Errorf("key %d drawn %d times, more than rank 0 (key %d, %d times)", k, n, hottest, seen[hottest])
		}
	}

	// The cold mix: client 0 scans its tenants front to back and starts
	// over, client 1 draws the same uniform sequence for the same seed.
	w := &serveWorkload{tenants: make([]string, 3), refs: make([]chunkRef, 4)}
	e := &env{seed: 9}
	scan := w.newPlan(e, 0, 2)
	for i := 0; i < 30; i++ {
		tn, ch := scan.next()
		if wantT, wantC := (i/4)%3, i%4; tn != wantT || ch != wantC {
			t.Fatalf("scanner request %d: tenant %d chunk %d, want %d %d", i, tn, ch, wantT, wantC)
		}
	}
	ra, rb := w.newPlan(e, 1, 2), w.newPlan(e, 1, 2)
	if ra.scanner || !scan.scanner {
		t.Error("client roles: even clients scan, odd clients read at random")
	}
	for i := 0; i < 100; i++ {
		at, ac := ra.next()
		bt, bc := rb.next()
		if at != bt || ac != bc || at < 0 || at >= 3 || ac < 0 || ac >= 4 {
			t.Fatalf("random reader request %d: (%d,%d) vs (%d,%d)", i, at, ac, bt, bc)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 62, End: 65},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 30, 4: 7, 5: 3} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d: self time %d, want %d", id, got, want)
		}
	}
	tr := newTracer()
	root := tr.start(0, "root", 1)
	kid := tr.start(root, "kid", 1)
	tr.end(kid)
	tr.end(root)
	if bad := checkTrace(tr); bad != "" {
		t.Error(bad)
	}
	tr.start(0, "left open", 2)
	tr.spans[2].End = -1
	if checkTrace(tr) == "" {
		t.Error("an unclosed span passed the trace check")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		b      []float64
		better string
		want   string
	}{
		{shift(1), "higher", "unchanged"},
		{shift(0.8), "higher", "regressed"},
		{shift(1.2), "higher", "improved"},
		{shift(1.2), "lower", "regressed"},
		{[]float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "higher", "unresolved"},
	}
	for i, c := range cases {
		if got, _, _ := verdict(base, c.b, c.better, 0.10); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

// BENCHMARK.json at the root of the repository is generated from the
// metric tables (bench spec); this keeps the two from drifting apart and
// checks the limits the contract puts on the file.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench spec`; regenerate it")
	}
	var back benchmarkSpec
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec()) {
		t.Error("BENCHMARK.json does not round-trip to the spec")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	s := spec()
	for _, w := range s.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	sawSetup := false
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit)
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", *m.Bound, m.Name)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit)
	}
	if !sawSetup || len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 || len(got) > 64<<10 {
		t.Error("BENCHMARK.json is outside the contract's limits")
	}
}

// The smoke runs every workload, untraced and traced, on a corpus of a few
// frames: it is what keeps the harness from rotting between real runs.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			rep, err := runOne(context.Background(), def, runConfig{seed: 7, seconds: 0.3, traced: traced, out: out, small: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", def.Name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, the ledger has %d", def.Name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (reported %v)", def.Name, traced, d.Name, m, ok)
				}
			}
			back, err := loadReport(filepath.Join(out, rep.fileName()))
			if err != nil || !reflect.DeepEqual(back, rep) {
				t.Errorf("%s traced=%v: stored result does not round-trip (%v)", def.Name, traced, err)
			}
			var buf bytes.Buffer
			if err := rep.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last result
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: last output line is not the result object: %v", def.Name, traced, err)
			}
			if !traced {
				continue
			}
			f, err := os.Open(filepath.Join(out, "trace-"+def.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
					t.Fatalf("%s: bad span line %q: %v", def.Name, sc.Text(), err)
				}
				n++
			}
			f.Close()
			if n == 0 || n != rep.Samples["spans"] {
				t.Errorf("%s: trace file holds %d spans, the run recorded %d", def.Name, n, rep.Samples["spans"])
			}
		}
	}
}
