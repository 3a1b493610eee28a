package testcorpus

import (
	"fmt"
	"hash/maphash"
	"testing"
)

// fakeTB records what Of asks of a test: its cleanups and its failures. A
// fatal failure unwinds as a panic of errFatal.
type fakeTB struct {
	testing.TB
	cleanups []func()
	errs     []string
}

var errFatal = fmt.Errorf("fatal")

func (f *fakeTB) Helper()           {}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.Errorf(format, args...)
	panic(errFatal)
}

// end runs the test's cleanups, last first, as the testing package does.
func (f *fakeTB) end() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// of runs Of for key on t, recovering a fatal failure.
func of(t *fakeTB, key string, build func(testing.TB, string) []byte) (v []byte) {
	defer func() {
		if r := recover(); r != nil && r != errFatal {
			panic(r)
		}
	}()
	return Of(t, key, build, func(v []byte, h *maphash.Hash) { h.Write(v) })
}

// TestOfBuildsOnceAndCatchesMutation: an entry is built once however many
// tests take it; a test that leaves it as built passes, one that changes it
// fails at its end, and so does every later test, until the entry is as
// built again.
func TestOfBuildsOnceAndCatchesMutation(t *testing.T) {
	builds := 0
	build := func(_ testing.TB, key string) []byte { builds++; return []byte(key) }
	var reader, writer, after fakeTB
	v := of(&reader, "abc", build)
	reader.end()
	if len(reader.errs) != 0 {
		t.Fatalf("a test that only read the entry failed: %v", reader.errs)
	}
	v2 := of(&writer, "abc", build)
	v2[1] = 'x'
	writer.end()
	if len(writer.errs) != 1 {
		t.Fatalf("a test that changed the entry got %d failures, want 1", len(writer.errs))
	}
	of(&after, "abc", build)
	v[1] = 'b'
	after.end()
	if builds != 1 || &v[0] != &v2[0] || len(after.errs) != 0 {
		t.Fatalf("%d builds, shared %v, failures after the entry was restored %v", builds, &v[0] == &v2[0], after.errs)
	}
}

// TestOfBuildFailureFailsLaterUses: a build that fails its test fails every
// later test that asks for the same key, rather than handing it a zero value.
func TestOfBuildFailureFailsLaterUses(t *testing.T) {
	fail := func(t testing.TB, _ string) []byte { t.Fatalf("cannot build"); return nil }
	var first, second fakeTB
	of(&first, "broken", fail)
	if v := of(&second, "broken", fail); v != nil || len(first.errs) != 1 || len(second.errs) != 1 {
		t.Fatalf("value %v, first test's failures %v, second's %v", v, first.errs, second.errs)
	}
}
