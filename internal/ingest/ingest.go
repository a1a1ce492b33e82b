// Package ingest is the one front door for recorded traces. A pluggable
// registry of streaming format converters — the repository's native trace
// ("file", cmd/tracegen output), ChampSim-style load traces, generic CSV
// access logs — each decodes block-buffered records on demand into the
// simulator's mem.Access stream.
//
// Formats self-register in their init functions under a short name that
// doubles as the public workload-source prefix: the workload name
// "champsim:<path>" resolves through Split to the "champsim" converter.
// Compression is orthogonal to format: OpenFile, the only reader of trace
// files, detects gzip from the stream's leading magic bytes, never the file
// name.
//
// Read decodes a file once, validating it to the end, into a packed
// in-memory trace: mem.Source has no error channel, so a corrupt header or
// a mid-record truncation must fail there, before a simulation silently
// runs on a short stream. Every pass of a run then replays that one packed
// trace. OpenFile streams a file in O(block) memory for one-pass tools
// (cmd/tracegen's conversion and -stats). A fixed input file yields a
// byte-identical record stream either way. Errors are reported through
// Reader.Err and classified under ErrBadTrace, never panics.
package ingest

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"prophet/internal/mem"
)

// ErrBadTrace reports a malformed trace (corrupt record, truncated file,
// unparsable field). It wraps every converter's decode errors so callers
// can classify ingestion failures without knowing the format; it is
// mem.ErrBadTrace itself, the native reader's sentinel.
var ErrBadTrace = mem.ErrBadTrace

func init() {
	MustRegister(Format{
		Name:        "file",
		Description: "native trace file replay (tracegen output, gzip auto-detected)",
		Open: func(r io.Reader) (Reader, error) {
			tr, err := mem.NewTraceReader(r)
			if err != nil {
				return nil, err
			}
			return tr, nil
		},
	})
}

// Reader is a streaming converted trace: a mem.Source plus the error that
// terminated it early, if any. A Reader is single-use; re-open the file for
// another pass.
type Reader interface {
	mem.Source
	// Err returns the decode error that ended the stream prematurely, or
	// nil after a clean end of input.
	Err() error
}

// Format is one registered external trace format.
type Format struct {
	// Name is the registry key and the workload-source prefix
	// ("champsim" serves champsim:<path> workload names).
	Name string
	// Description is a one-line summary for tooling (CLI help, the
	// daemon's /v1/workloads source table).
	Description string
	// Open wraps an already-decompressed byte stream in a streaming
	// converter positioned at the first record.
	Open func(r io.Reader) (Reader, error)
}

var (
	mu      sync.RWMutex
	formats = map[string]Format{}
)

// Register installs a format under its name. Duplicates are rejected: two
// converters fighting over a prefix would make workload resolution depend
// on init order.
func Register(f Format) error {
	if f.Name == "" {
		return fmt.Errorf("ingest: empty format name")
	}
	if strings.ContainsAny(f.Name, ":/\\ \t\n") {
		return fmt.Errorf("ingest: format name %q must be prefix-safe", f.Name)
	}
	if f.Open == nil {
		return fmt.Errorf("ingest: nil Open for format %q", f.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := formats[f.Name]; dup {
		return fmt.Errorf("ingest: format %q already registered", f.Name)
	}
	formats[f.Name] = f
	return nil
}

// MustRegister is Register for init functions.
func MustRegister(f Format) {
	if err := Register(f); err != nil {
		panic(err)
	}
}

// Lookup resolves a format by name.
func Lookup(name string) (Format, bool) {
	mu.RLock()
	defer mu.RUnlock()
	f, ok := formats[name]
	return f, ok
}

// Formats lists the registered formats sorted by name, for stable output.
func Formats() []Format {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Format, 0, len(formats))
	for _, f := range formats {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Split parses a "<format>:<path>" workload-source name against the
// registered formats. Names whose prefix is not a registered format (or
// that have no prefix at all) report ok=false — they belong to another
// resolver, like the catalog.
func Split(name string) (f Format, path string, ok bool) {
	prefix, rest, found := strings.Cut(name, ":")
	if !found || rest == "" {
		return Format{}, "", false
	}
	f, ok = Lookup(prefix)
	return f, rest, ok
}

// FileReader couples a converter with the file (and optional gzip layer)
// beneath it.
type FileReader struct {
	Reader
	f *os.File
}

// Close releases the underlying file.
func (c *FileReader) Close() error { return c.f.Close() }

// OpenFile opens path for streaming conversion under format f,
// transparently decompressing gzip (detected from the stream's leading
// magic bytes, not the file name). The caller owns the returned reader and
// must Close it.
func OpenFile(f Format, path string) (*FileReader, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(file, 1<<16)
	var src io.Reader = br
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			file.Close()
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		src = zr
	}
	r, err := f.Open(src)
	if err != nil {
		file.Close()
		return nil, err
	}
	return &FileReader{Reader: r, f: file}, nil
}

// Read decodes the whole file under format f into a packed trace in one
// pass. It is the validation behind workload resolution: a corrupt header,
// a truncated record, or an absurd field surfaces here as an error, before
// a simulation would silently run on a short stream.
func Read(f Format, path string) (*mem.Packed, error) {
	r, err := OpenFile(f, path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	p := mem.Pack(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return p, nil
}
