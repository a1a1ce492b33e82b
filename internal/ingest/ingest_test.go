package ingest

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophet/internal/mem"
)

// champsimInstr builds one 64-byte input_instr record.
func champsimInstr(ip uint64, loads []uint64, stores []uint64) []byte {
	b := make([]byte, champsimRecordBytes)
	binary.LittleEndian.PutUint64(b[0:], ip)
	for i, a := range stores {
		binary.LittleEndian.PutUint64(b[16+8*i:], a)
	}
	for i, a := range loads {
		binary.LittleEndian.PutUint64(b[32+8*i:], a)
	}
	return b
}

// sampleChampSim is a small deterministic instruction mix: memory
// instructions interleaved with pure-ALU ones, multi-operand records, and a
// store.
func sampleChampSim() []byte {
	var buf bytes.Buffer
	buf.Write(champsimInstr(0x400000, nil, nil)) // ALU only: becomes Gap
	buf.Write(champsimInstr(0x400004, nil, nil))
	buf.Write(champsimInstr(0x400008, []uint64{0x10000}, nil))
	buf.Write(champsimInstr(0x40000c, []uint64{0x10040, 0x20000}, []uint64{0x30000}))
	buf.Write(champsimInstr(0x400010, nil, nil))
	buf.Write(champsimInstr(0x400014, nil, []uint64{0x10080}))
	return buf.Bytes()
}

func drain(t *testing.T, r Reader) []mem.Access {
	t.Helper()
	var out []mem.Access
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

func TestChampSimExpansion(t *testing.T) {
	f, _ := Lookup("champsim")
	r, err := f.Open(bytes.NewReader(sampleChampSim()))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	want := []mem.Access{
		{PC: 0x400008, Addr: 0x10000, Kind: mem.Load, Gap: 2},
		{PC: 0x40000c, Addr: 0x10040, Kind: mem.Load},
		{PC: 0x40000c, Addr: 0x20000, Kind: mem.Load},
		{PC: 0x40000c, Addr: 0x30000, Kind: mem.Store},
		{PC: 0x400014, Addr: 0x10080, Kind: mem.Store, Gap: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestChampSimTruncation(t *testing.T) {
	raw := sampleChampSim()
	f, _ := Lookup("champsim")
	r, err := f.Open(bytes.NewReader(raw[:len(raw)-13]))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	if !errors.Is(r.Err(), ErrBadTrace) {
		t.Fatalf("truncated trace: Err() = %v, want ErrBadTrace", r.Err())
	}
}

func TestChampSimGzipAutoDetect(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.champsim")
	if err := os.WriteFile(plain, sampleChampSim(), 0o644); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(sampleChampSim())
	zw.Close()
	// No .gz suffix on purpose: detection is by magic bytes, not name.
	zipped := filepath.Join(dir, "t.champsim.compressed")
	if err := os.WriteFile(zipped, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := Lookup("champsim")
	for _, path := range []string{plain, zipped} {
		p, err := Read(f, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if p.Len() != 5 {
			t.Errorf("%s: Read %d records, want 5", path, p.Len())
		}
	}
}

// TestGoldenChampSim pins the checked-in sample fixture: record count and a
// cheap order-sensitive digest must never drift, since sweep results for
// champsim: workloads hang off this stream being byte-identical.
func TestGoldenChampSim(t *testing.T) {
	f, _ := Lookup("champsim")
	const path = "../../testdata/sample.champsim.gz"
	p, err := Read(f, path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 6336 {
		t.Fatalf("fixture record count = %d, want 6336", p.Len())
	}
	r, err := OpenFile(f, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var digest uint64
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		digest = digest*1099511628211 ^ uint64(a.PC) ^ uint64(a.Addr)<<1 ^ uint64(a.Kind)<<2 ^ uint64(a.Gap)<<3
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if digest != goldenChampSimDigest {
		t.Fatalf("fixture digest = %#x, want %#x", digest, goldenChampSimDigest)
	}
}

func TestCSVParsing(t *testing.T) {
	in := strings.Join([]string{
		"pc,addr,kind,dep,gap", // header
		"# comment",
		"",
		"0x400000,0x10000",
		"0x400004,0x10040,store",
		"4195336,65664,S,1,7",
		"0x40000c,0x20000,load,0,2",
	}, "\n")
	f, _ := Lookup("csv")
	r, err := f.Open(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	want := []mem.Access{
		{PC: 0x400000, Addr: 0x10000, Kind: mem.Load},
		{PC: 0x400004, Addr: 0x10040, Kind: mem.Store},
		{PC: 4195336, Addr: 65664, Kind: mem.Store, Dep: 1, Gap: 7},
		{PC: 0x40000c, Addr: 0x20000, Kind: mem.Load, Gap: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"0x400000,0x1000\nnot-a-pc,0x2000",               // bad pc after data
		"0x400000,0x1000\n0x400004,bad",                  // bad addr
		"0x400000,0x1000\n0x400004,0x2000,x",             // bad kind
		"0x400000,0x1000\n1,2,load,99999999999999999999", // absurd dep
		"0x400000,0x1000\n1,2,load,0,70000",              // gap over uint16
		"0x400000,0x1000\n1,2,load,0,1,extra",            // too many fields
		"header\nstill,not,numbers",                      // two unparsable lines
	}
	f, _ := Lookup("csv")
	for _, in := range cases {
		r, err := f.Open(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, r)
		if !errors.Is(r.Err(), ErrBadTrace) {
			t.Errorf("input %q: Err() = %v, want ErrBadTrace", in, r.Err())
		}
	}
}

// TestReadValidates: Read decodes to the end, so a truncated trace fails
// under ErrBadTrace instead of packing a short stream.
func TestReadValidates(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.champsim")
	if err := os.WriteFile(bad, sampleChampSim()[:70], 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := Lookup("champsim")
	if _, err := Read(f, bad); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Read(truncated) = %v, want ErrBadTrace", err)
	}
	if _, err := Read(f, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Read(missing) succeeded")
	}
}

func TestSplit(t *testing.T) {
	if f, path, ok := Split("champsim:/tmp/x.trace"); !ok || f.Name != "champsim" || path != "/tmp/x.trace" {
		t.Fatalf("Split(champsim:...) = %v %q %v", f.Name, path, ok)
	}
	if _, _, ok := Split("csv:relative/dir/log.csv.gz"); !ok {
		t.Fatal("Split(csv:...) not ok")
	}
	if f, path, ok := Split("file:/tmp/x.trc"); !ok || f.Name != "file" || path != "/tmp/x.trc" {
		t.Fatalf("Split(file:...) = %v %q %v", f.Name, path, ok)
	}
	for _, name := range []string{"mcf", "champsim:", "file:", "nope:path", ""} {
		if _, _, ok := Split(name); ok {
			t.Errorf("Split(%q) unexpectedly ok", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := []string{}
	for _, f := range Formats() {
		names = append(names, f.Name)
	}
	if len(names) < 3 || names[0] != "champsim" || names[1] != "csv" || names[2] != "file" {
		t.Fatalf("Formats() = %v, want [champsim csv file ...]", names)
	}
	open := func(io.Reader) (Reader, error) { return nil, nil }
	if err := Register(Format{Name: "champsim", Open: open}); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	for _, bad := range []Format{
		{Name: "", Open: open},
		{Name: "has:colon", Open: open},
		{Name: "ok"},
	} {
		if err := Register(bad); err == nil {
			t.Errorf("Register(%+v) succeeded, want error", bad)
		}
	}
}

// goldenChampSimDigest is the FNV-style digest of the frozen
// testdata/sample.champsim.gz stream.
const goldenChampSimDigest = 0x31676d8ffc494868
