// Durable result store plumbing: the public half of the disk cache tier.
// An Evaluator given a ResultStore (WithResultStore / UseResultStore) never
// recomputes a job whose result is already stored — Run, RunJob, SweepLocal
// and sharded Sweep all consult the store first and write completed results
// through — so restarts start warm and a fleet coordinator's store turns
// every peer's past work into O(1) disk reads for the whole fleet.
//
// The contract that makes this safe is content addressing: StoreKey is a
// pure function of the request, the stored value encoding is canonical
// JSON (EncodeStoredResult), and the store itself is namespaced by
// StoreFingerprint — the engine schema generation, build version, and
// resolved simulation options — so results can only ever be replayed into
// the exact engine that would have produced them, byte-identically.
package prophet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"prophet/internal/registry"
)

// ResultStore is the durable second cache tier consulted below the
// in-memory layers: Get returns the stored value bytes for a key, Put
// persists a completed result. Implementations must be safe for concurrent
// use and idempotent under re-Put of an existing key; internal/resultstore
// provides the append-only log implementation served by prophetd's -store
// flag.
type ResultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// engineSchema is the generation number of the simulation output schema.
// Bump it whenever a change to the simulator alters RunStats for a fixed
// request (the golden-fixture tests are the tripwire): the fingerprint
// change invalidates every durable store, so an upgraded engine can never
// serve bytes computed by an older one. Bump it too when StoreKey changes
// shape, so entries stored under the old key, which no lookup can reach
// again, go with the old fingerprint instead of filling the store.
const engineSchema = 2

// StoreFingerprint identifies the engine that produces a result: the
// schema generation, the build version, and the resolved simulation
// options. Stores are namespaced by this string — prophetd stamps it into
// the store file at open — so any change to the simulator, its build, or
// its configuration self-invalidates previously stored results.
func StoreFingerprint(o Options) string {
	return fmt.Sprintf("schema=%d;version=%s;opts=%+v", engineSchema, Version(), o)
}

// StoreFingerprint returns the fingerprint of this evaluator's resolved
// configuration — the value a store serving this evaluator must be opened
// with.
func (e *Evaluator) StoreFingerprint() string { return StoreFingerprint(e.opts) }

// StoreKey is the canonical durable-store key of a job: a function of the
// request, shared by every tier (the prophetd serving cache, the disk
// store, and sweep dispatch), so one stored computation satisfies all of
// them. The fields are joined positionally with newlines; workload names
// never contain newlines. For a workload backed by an on-disk file the key
// also carries the file's size and mtime, as its baseline key does: such
// jobs never reach the durable store, but the serving cache must see a
// regenerated trace as a new request.
func StoreKey(j Job) string {
	return fmt.Sprintf("evaluate\n%s\n%d\n%s%s",
		j.Workload.Name, j.Workload.Records, j.Scheme, j.Workload.stamp())
}

// storedResult is the canonical stored-value shape. encoding/json renders
// float64s with the shortest round-tripping representation and sorts map
// keys, so encode→decode→encode is byte-stable and a replayed result is
// byte-identical to a recomputed one.
type storedResult struct {
	Stats RunStats       `json:"stats"`
	Meta  map[string]int `json:"meta,omitempty"`
}

// EncodeStoredResult serializes a completed report into the canonical
// durable-store value encoding.
func EncodeStoredResult(rep Report) ([]byte, error) {
	return json.Marshal(storedResult{Stats: rep.Stats, Meta: rep.Meta})
}

// DecodeStoredResult parses a stored value. Decoding is strict — unknown
// fields are an error — so bytes written under a schema the fingerprint
// failed to catch degrade to a recompute, never to silently zeroed fields.
func DecodeStoredResult(b []byte) (Report, error) {
	var sr storedResult
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return Report{}, fmt.Errorf("prophet: decode stored result: %w", err)
	}
	return Report{Stats: sr.Stats, Meta: sr.Meta}, nil
}

// WithResultStore attaches a durable result store as the cache tier under
// the engine: jobs whose results are stored are answered from disk without
// simulating, and completed computations write through.
func WithResultStore(rs ResultStore) Option {
	return func(e *Evaluator) { e.store = rs }
}

// UseResultStore attaches rs to an already-constructed evaluator — the
// daemon's wiring order, where the store's fingerprint comes from the
// evaluator's resolved options. It is not synchronized with concurrent
// runs: call it before the evaluator starts serving.
func (e *Evaluator) UseResultStore(rs ResultStore) { e.store = rs }

// storable excludes jobs that must not be persisted or replayed: workloads
// backed by an on-disk path ("file:", "champsim:", "csv:") reference local
// files whose contents can change under the same name, so a durable entry
// could outlive the trace that produced it; and a scheme this process does
// not register has no engine to have produced the entry — the fingerprint
// does not cover the registry — so it must fail as unknown, not replay.
func storable(j Job) bool {
	if _, ok := registry.Lookup(string(j.Scheme)); !ok {
		return false
	}
	return externalPath(j.Workload.Name) == ""
}

// StoreLookup consults rs for j's completed result, applying the full
// read-side contract: storability (external-path workloads and unregistered
// schemes are never served from a store), the canonical key, and strict
// decoding (a corrupt or drifted-schema value reads as a miss, never as
// zeroed stats). The returned report has FromStore set.
func StoreLookup(rs ResultStore, j Job) (Report, bool) {
	if rs == nil || !storable(j) {
		return Report{}, false
	}
	b, ok := rs.Get(StoreKey(j))
	if !ok {
		return Report{}, false
	}
	rep, err := DecodeStoredResult(b)
	if err != nil {
		return Report{}, false
	}
	rep.FromStore = true
	return rep, true
}

// storeGet consults the durable tier for a job's completed result.
func (e *Evaluator) storeGet(j Job) (Report, bool) {
	return StoreLookup(e.store, j)
}

// storePut writes a completed result through to the durable tier.
// Store failures never fail the run that produced the result.
func (e *Evaluator) storePut(j Job, rep Report) {
	if e.store == nil || !storable(j) {
		return
	}
	b, err := EncodeStoredResult(rep)
	if err != nil {
		return
	}
	_ = e.store.Put(StoreKey(j), b)
}
