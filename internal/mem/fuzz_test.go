package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzTraceReader hammers the native-trace parser with arbitrary bytes:
// corrupt magic, bad versions, absurd header counts, and mid-record
// truncation must all surface as ErrBadTrace (from NewTraceReader or Err,
// and from readTrace), never a panic, unbounded allocation, or a silently
// short stream.
func FuzzTraceReader(f *testing.F) {
	var good bytes.Buffer
	if _, err := WriteTrace(&good, NewSliceSource(testRecords())); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())-5]) // truncated mid-record
	f.Add(good.Bytes()[:12])                  // truncated header
	f.Add([]byte("PROPHTRC"))                 // magic only
	// Absurd declared count with no payload behind it.
	absurd := append([]byte{}, good.Bytes()[:12]...)
	absurd = binary.LittleEndian.AppendUint64(absurd, 1<<40)
	f.Add(absurd)
	f.Add(forgedTrace(f)) // accepted count, one record behind it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if recs, err := readTrace(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("readTrace error %v not classified under ErrBadTrace", err)
			}
		} else if uint64(len(recs)) != binary.LittleEndian.Uint64(data[12:]) {
			t.Fatalf("readTrace returned %d records, header declares %d", len(recs), binary.LittleEndian.Uint64(data[12:]))
		}
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewTraceReader error %v not classified under ErrBadTrace", err)
			}
			return
		}
		var n uint64
		for {
			_, ok := tr.Next()
			if !ok {
				break
			}
			n++
		}
		if err := tr.Err(); err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("Err() = %v, not classified under ErrBadTrace", err)
			}
		} else if n != tr.count {
			t.Fatalf("clean stream delivered %d of %d declared records", n, tr.count)
		}
		if _, ok := tr.Next(); ok {
			t.Fatal("Next() succeeded after stream end")
		}
	})
}
