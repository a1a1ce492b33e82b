package prophet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestBatchReplyBounded pins that a peer streaming an endless /v1/batch
// reply fails the batch after a bounded read instead of making the
// coordinator allocate without limit: the peer writes a valid prefix, then
// result rows until the client hangs up.
func TestBatchReplyBounded(t *testing.T) {
	row := `{"stats":{},"meta":{"k":1}},`
	chunk := strings.Repeat(row, 1024)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"options":{},"results":[`)); err != nil {
			return
		}
		for r.Context().Err() == nil {
			if _, err := w.Write([]byte(chunk)); err != nil {
				return
			}
		}
	}))
	defer peer.Close()

	b := &httpBackend{base: peer.URL, client: peer.Client()}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Workload: Workload{Name: "mcf", Records: 1000}, Scheme: Baseline}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := b.Execute(context.Background(), jobs)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Execute accepted an endless batch reply")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("decoding the endless reply allocated %d MiB; want a few MiB at most", got>>20)
	}
}
