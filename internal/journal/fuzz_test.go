package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sameJSON compares two raw payloads up to the compaction Marshal
// applies to json.RawMessage, so a spaced-out hand-edited payload
// still counts as round-tripped.
func sameJSON(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return bytes.Equal(a, b)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// serialReplay decodes a journal's bytes one line at a time on the
// calling goroutine, as Open did before it decoded on several: the
// oracle Open's records and skipped count must equal.
func serialReplay(data []byte) (recs []Record, skipped int) {
	rd := bufio.NewReader(bytes.NewReader(data))
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var rec Record
			if json.Unmarshal(line, &rec) != nil {
				skipped++
			} else {
				recs = append(recs, rec)
			}
		}
		if err != nil { // io.EOF: the reader is over memory
			return recs, skipped
		}
	}
}

// sameReplay reports whether two replays hold the same records in the
// same order.
func sameReplay(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzOpenReduce throws arbitrary bytes at the replay path — the code
// that must survive kill -9 damage, hand edits, and glued lines — and
// checks the recovery invariants Open and Reduce document:
//
//   - Open never fails on content (only on I/O), never panics, and
//     always leaves the file append-ready (newline-terminated).
//   - Open's records and skipped count equal a serial line-by-line
//     json.Unmarshal of the same bytes (serialReplay).
//   - Every replayed record re-Appends and replays back identically
//     (minus the wall-clock stamp), so recovery is idempotent.
//   - Reduce's entries have unique IDs, all of type submit, and
//     maxSeq dominates every folded record's Seq.
func FuzzOpenReduce(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"type\":\"submit\",\"id\":\"r1\",\"seq\":1,\"spec\":{\"kind\":\"collision\"}}\n"))
	f.Add([]byte("{\"type\":\"submit\",\"id\":\"r1\",\"seq\":1}\n{\"type\":\"terminal\",\"id\":\"r1\",\"state\":\"done\",\"result\":{\"n\":41}}\n"))
	f.Add([]byte("{\"type\":\"terminal\",\"id\":\"orphan\",\"state\":\"failed\",\"error\":\"boom\"}\n"))
	f.Add([]byte("{\"type\":\"submit\",\"id\":\"r2\",\"seq\":2}\n{\"type\":\"sub")) // torn final line
	f.Add([]byte("not json at all\n{\"type\":\"submit\",\"id\":\"r3\",\"seq\":3}\n"))
	f.Add([]byte("{\"type\":\"mystery\",\"id\":\"r4\"}\n{\"type\":\"submit\",\"id\":\"\"}\n"))
	f.Add([]byte(strings.Repeat("x", 100*1024) + "\n{\"type\":\"submit\",\"id\":\"after-wreck\",\"seq\":9}\n"))
	f.Add([]byte("\n\n   \n{\"type\":\"submit\",\"id\":\"ws\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, skipped, err := Open(dir)
		if err != nil {
			t.Fatalf("Open failed on pure content damage: %v", err)
		}
		j.Close()
		if skipped < 0 {
			t.Fatalf("negative skipped count %d", skipped)
		}
		if want, wantSkipped := serialReplay(data); !sameReplay(recs, want) || skipped != wantSkipped {
			t.Fatalf("Open replayed %d records (%d skipped), the serial decode %d (%d skipped)",
				len(recs), skipped, len(want), wantSkipped)
		}

		entries, maxSeq, corrupt := Reduce(recs)
		if corrupt > len(recs) {
			t.Fatalf("corrupt %d exceeds record count %d", corrupt, len(recs))
		}
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			if e.Submit.Type != TypeSubmit || e.Submit.ID == "" {
				t.Fatalf("entry folded from non-submit record: %+v", e.Submit)
			}
			if seen[e.Submit.ID] {
				t.Fatalf("duplicate entry for id %q", e.Submit.ID)
			}
			seen[e.Submit.ID] = true
			if e.Terminal != nil && e.Terminal.Type != TypeTerminal {
				t.Fatalf("terminal slot holds %q record", e.Terminal.Type)
			}
		}
		for _, r := range recs {
			if (r.Type == TypeSubmit || r.Type == TypeTerminal) && r.ID != "" && r.Seq > maxSeq {
				t.Fatalf("maxSeq %d misses folded Seq %d", maxSeq, r.Seq)
			}
		}

		// Recovery is idempotent: re-append everything replayable and
		// replay again — same records (Append stamps empty Times).
		dir2 := t.TempDir()
		j2, _, _, err := Open(dir2)
		if err != nil {
			t.Fatal(err)
		}
		var wrote []Record
		for _, r := range recs {
			if r.Type == "" || r.ID == "" {
				continue // Append rejects these by contract
			}
			if err := j2.Append(r); err != nil {
				t.Fatalf("re-appending replayed record: %v", err)
			}
			wrote = append(wrote, r)
		}
		j2.Close()
		_, recs2, skipped2, err := Open(dir2)
		if err != nil {
			t.Fatal(err)
		}
		if skipped2 != 0 {
			t.Fatalf("re-appended journal has %d unparseable lines", skipped2)
		}
		if len(recs2) != len(wrote) {
			t.Fatalf("round trip lost records: wrote %d, replayed %d", len(wrote), len(recs2))
		}
		for i, got := range recs2 {
			want := wrote[i]
			if want.Time == "" {
				got.Time = "" // Append stamped it
			}
			if got.Type != want.Type || got.ID != want.ID || got.Seq != want.Seq ||
				got.Time != want.Time || got.State != want.State || got.Error != want.Error ||
				!sameJSON(got.Spec, want.Spec) || !sameJSON(got.Result, want.Result) ||
				!sameJSON(got.Snap, want.Snap) {
				t.Fatalf("record %d changed across append/replay:\nwrote    %+v\nreplayed %+v", i, want, got)
			}
		}
	})
}
