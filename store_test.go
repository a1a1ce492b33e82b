// Tests for the durable result store plumbing: two evaluators sharing one
// store, the canonical key/value codec, and the fingerprint contract.
package prophet_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prophet"

	"prophet/internal/resultstore"
)

// TestResultStoreWarmsSecondEvaluator is the in-process warm-restart
// contract: an evaluator attached to a populated store answers a repeated
// sweep entirely from disk — byte-identical results and zero simulations,
// baselines included.
func TestResultStoreWarmsSecondEvaluator(t *testing.T) {
	jobs := testJobs(t)
	path := t.TempDir() + "/results.prst"

	cold := prophet.New(prophet.WithWorkers(4))
	st, err := resultstore.Open(path, resultstore.Options{Fingerprint: cold.StoreFingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	cold.UseResultStore(st)
	first, err := cold.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(jobs) {
		t.Fatalf("store holds %d entries after sweeping %d jobs", st.Len(), len(jobs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A brand-new evaluator on a re-opened store is the warm restart: its
	// engine must never run.
	warm := prophet.New(prophet.WithWorkers(4))
	st2, err := resultstore.Open(path, resultstore.Options{Fingerprint: warm.StoreFingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm.UseResultStore(st2)
	second, err := warm.Sweep(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := warm.BaselineCacheStats(); misses != 0 {
		t.Fatalf("warm sweep simulated %d baselines, want 0 (all jobs stored)", misses)
	}
	if got := st2.Stats(); got.Hits != int64(len(jobs)) {
		t.Fatalf("warm sweep disk hits = %d, want %d", got.Hits, len(jobs))
	}
	if len(first) != len(second) {
		t.Fatalf("result lengths: cold=%d warm=%d", len(first), len(second))
	}
	for i := range first {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("job %d errored: cold=%v warm=%v", i, first[i].Err, second[i].Err)
		}
		if first[i].Stats != second[i].Stats {
			t.Errorf("job %d (%s/%s) diverged from disk:\n cold %+v\n warm %+v",
				i, jobs[i].Workload.Name, jobs[i].Scheme, first[i].Stats, second[i].Stats)
		}
	}
}

// TestResultStoreRunJobHits: the single-job path consults the store too —
// a second evaluator's Run never touches its engine for a stored job.
func TestResultStoreRunJobHits(t *testing.T) {
	w, err := prophet.Find("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithRecords(20_000)
	path := t.TempDir() + "/results.prst"

	a := prophet.New()
	st, err := resultstore.Open(path, resultstore.Options{Fingerprint: a.StoreFingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a.UseResultStore(st)
	first, err := a.Run(context.Background(), w, prophet.Prophet)
	if err != nil {
		t.Fatal(err)
	}

	b := prophet.New(prophet.WithResultStore(st))
	second, err := b.Run(context.Background(), w, prophet.Prophet)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := b.BaselineCacheStats(); misses != 0 {
		t.Fatalf("stored Run still simulated a baseline (misses=%d)", misses)
	}
	if first != second {
		t.Fatalf("stored Run diverged:\n first  %+v\n second %+v", first, second)
	}
}

// TestStoreNeverAnswersUnregisteredScheme: the store fingerprint does not
// cover the scheme registry, so an entry written by a build that registered
// a scheme must not answer for it in a build that does not. RunJob and
// Sweep both report the scheme as unknown even though the key is stored.
func TestStoreNeverAnswersUnregisteredScheme(t *testing.T) {
	w, err := prophet.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	j := prophet.Job{Workload: w.WithRecords(20_000), Scheme: "no-such-scheme"}
	val, err := prophet.EncodeStoredResult(prophet.Report{Stats: prophet.RunStats{Speedup: 9}})
	if err != nil {
		t.Fatal(err)
	}
	st := &memStore{m: map[string][]byte{prophet.StoreKey(j): val}}
	ev := prophet.New(prophet.WithResultStore(st))

	if rep, err := ev.RunJob(context.Background(), j); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("RunJob on an unregistered scheme = %+v, %v; want an unknown scheme error", rep.Stats, err)
	}
	rs, err := ev.Sweep(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "unknown scheme") {
		t.Fatalf("Sweep on an unregistered scheme = %+v, %v; want an unknown scheme error", rs[0].Stats, rs[0].Err)
	}
}

// TestStoredResultCodecIsByteStable: decode→re-encode of a stored value is
// the identity, which is what makes disk-tier replays byte-identical.
func TestStoredResultCodecIsByteStable(t *testing.T) {
	ev := prophet.New()
	w, err := prophet.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Run(context.Background(), w.WithRecords(20_000), prophet.Triangel)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := prophet.EncodeStoredResult(prophet.Report{Stats: rep})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := prophet.DecodeStoredResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := prophet.EncodeStoredResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("codec not byte-stable:\n enc %s\n re  %s", enc, re)
	}
	if dec.Stats != rep {
		t.Fatalf("round-trip changed stats:\n in  %+v\n out %+v", rep, dec.Stats)
	}
}

// TestDecodeStoredResultRejectsUnknownFields: schema drift the fingerprint
// failed to catch degrades to a decode error (→ recompute), never to
// silently zeroed fields.
func TestDecodeStoredResultRejectsUnknownFields(t *testing.T) {
	if _, err := prophet.DecodeStoredResult([]byte(`{"stats":{},"futureField":1}`)); err == nil {
		t.Fatal("unknown field decoded without error")
	}
	if _, err := prophet.DecodeStoredResult([]byte(`not json`)); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// TestStoreKeyMatchesServingCacheShape pins the cross-tier key contract:
// every tier keys on the same canonical string, so a result stored by one
// entry point satisfies all the others.
func TestStoreKeyMatchesServingCacheShape(t *testing.T) {
	j := prophet.Job{Workload: prophet.Workload{Name: "sphinx3", Records: 20_000}, Scheme: prophet.Prophet}
	want := "evaluate\nsphinx3\n20000\nprophet"
	if got := prophet.StoreKey(j); got != want {
		t.Fatalf("StoreKey = %q, want %q", got, want)
	}
}

// TestStoreFingerprintSeparatesConfigurations: different engine options
// must land in different store namespaces.
func TestStoreFingerprintSeparatesConfigurations(t *testing.T) {
	base := prophet.New().StoreFingerprint()
	tuned := prophet.New(prophet.WithOptions(prophet.Options{DRAMChannels: 2})).StoreFingerprint()
	if base == tuned {
		t.Fatal("distinct engine options share a store fingerprint")
	}
	if !strings.Contains(base, "schema=") || !strings.Contains(base, "version=") {
		t.Fatalf("fingerprint missing schema/version markers: %q", base)
	}
	if prophet.New().StoreFingerprint() != base {
		t.Fatal("fingerprint not deterministic for equal configurations")
	}
}
