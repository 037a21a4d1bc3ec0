package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Journal, []Record, int) {
	t.Helper()
	j, recs, skipped, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs, skipped
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, skipped := mustOpen(t, dir)
	if len(recs) != 0 || skipped != 0 {
		t.Fatalf("fresh journal replayed %d records, %d skipped", len(recs), skipped)
	}
	spec := json.RawMessage(`{"kind":"density","rounds":10}`)
	result := json.RawMessage(`{"id":"r000001","metrics":{}}`)
	for _, rec := range []Record{
		{Type: TypeSubmit, ID: "r000001", Seq: 1, Spec: spec},
		{Type: TypeSubmit, ID: "r000002", Seq: 2, Spec: spec},
		{Type: TypeTerminal, ID: "r000001", State: "done", Result: result},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSubmit, ID: "x"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	j2, recs, skipped := mustOpen(t, dir)
	defer j2.Close()
	if len(recs) != 3 || skipped != 0 {
		t.Fatalf("replay = %d records, %d skipped; want 3, 0", len(recs), skipped)
	}
	if recs[0].Time == "" {
		t.Error("Append did not stamp Time")
	}
	entries, maxSeq, corrupt := Reduce(recs)
	if len(entries) != 2 || maxSeq != 2 || corrupt != 0 {
		t.Fatalf("Reduce = %d entries, maxSeq %d; want 2, 2", len(entries), maxSeq)
	}
	if entries[0].Interrupted() || entries[0].Terminal.State != "done" ||
		string(entries[0].Terminal.Result) != string(result) {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if !entries[1].Interrupted() {
		t.Fatalf("entry 1 should be interrupted: %+v", entries[1])
	}

	// Appending through the reopened journal extends, not truncates.
	if err := j2.Append(Record{Type: TypeTerminal, ID: "r000002", State: "canceled", Error: "x"}); err != nil {
		t.Fatal(err)
	}
	_, recs, _ = mustOpen(t, dir)
	if len(recs) != 4 {
		t.Fatalf("after reopen-append, replay = %d records, want 4", len(recs))
	}
}

func TestJournalSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	if err := j.Append(Record{Type: TypeSubmit, ID: "r000001", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: a torn, newline-less final line.
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"terminal","id":"r0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, skipped := mustOpen(t, dir)
	if len(recs) != 1 || skipped != 1 {
		t.Fatalf("replay = %d records, %d skipped; want 1 record, 1 skipped", len(recs), skipped)
	}
	// The journal stays appendable after the torn line.
	if err := j2.Append(Record{Type: TypeTerminal, ID: "r000001", State: "done"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs, skipped = mustOpen(t, dir)
	entries, _, _ := Reduce(recs)
	if len(recs) != 2 || skipped != 1 || len(entries) != 1 || entries[0].Interrupted() {
		t.Fatalf("post-recovery replay = %d records (%d skipped), entries %+v", len(recs), skipped, entries)
	}
}

// TestJournalSurvivesInteriorCorruption flips bytes in the middle of
// the file — bit rot, not a torn tail — and asserts the replay skips
// exactly the damaged lines while recovering the healthy suffix
// written after them.
func TestJournalSurvivesInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	for seq := 1; seq <= 5; seq++ {
		id := string(rune('a' + seq - 1))
		if err := j.Append(Record{Type: TypeSubmit, ID: id, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("journal has %d lines, want 5", len(lines))
	}
	// Mangle line 2 into non-JSON and line 3 into valid JSON with a
	// broken record shape (Reduce's corruption class).
	copy(lines[1], `x#!garbage`)
	lines[2] = []byte(`{"type":"haywire","id":"c","seq":3}`)
	mangled := append(bytes.Join(lines, []byte("\n")), '\n')
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, skipped := mustOpen(t, dir)
	defer j2.Close()
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the non-JSON line)", skipped)
	}
	entries, maxSeq, corrupt := Reduce(recs)
	if corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1 (the unknown-type record)", corrupt)
	}
	// The healthy prefix AND suffix both replay: a, d, e.
	if len(entries) != 3 || maxSeq != 5 {
		t.Fatalf("entries = %d, maxSeq = %d; want 3 entries, maxSeq 5", len(entries), maxSeq)
	}
	for i, want := range []string{"a", "d", "e"} {
		if entries[i].Submit.ID != want {
			t.Errorf("entry %d = %q, want %q", i, entries[i].Submit.ID, want)
		}
	}
}

// TestJournalOversizedWreckDoesNotAbortReplay glues a giant unparseable
// line (bigger than any scanner buffer default) into the middle of the
// file; the replay must count it as one skipped line and keep going.
func TestJournalOversizedWreckDoesNotAbortReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := mustOpen(t, dir)
	if err := j.Append(Record{Type: TypeSubmit, ID: "a", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(bytes.Repeat([]byte{'z'}, 1<<20), '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"type\":\"submit\",\"id\":\"b\",\"seq\":2}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, skipped := mustOpen(t, dir)
	defer j2.Close()
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("replay = %d records, %d skipped; want 2 records, 1 skipped", len(recs), skipped)
	}
}

func TestReduceOrphanAndDuplicateRecords(t *testing.T) {
	entries, maxSeq, corrupt := Reduce([]Record{
		{Type: TypeTerminal, ID: "ghost", State: "done"}, // orphan: dropped
		{Type: TypeSubmit, ID: "a", Seq: 3},
		{Type: TypeSubmit, ID: "a", Seq: 4}, // duplicate submit: first wins
		{Type: TypeTerminal, ID: "a", State: "canceled"},
		{Type: TypeTerminal, ID: "a", State: "done"}, // last terminal wins
		{Type: "gibberish", ID: "b", Seq: 99},        // unknown type: corrupt
		{Type: TypeSubmit, ID: "", Seq: 98},          // missing id: corrupt
	})
	if len(entries) != 1 || maxSeq != 4 || corrupt != 2 {
		t.Fatalf("Reduce = %d entries, maxSeq %d, corrupt %d", len(entries), maxSeq, corrupt)
	}
	if entries[0].Submit.Seq != 3 || entries[0].Terminal == nil || entries[0].Terminal.State != "done" {
		t.Fatalf("entry = %+v, terminal %+v", entries[0].Submit, entries[0].Terminal)
	}
}

// TestOpenDecodeWorkerCounts replays one damaged journal long enough
// to be decoded on several workers at GOMAXPROCS 1, 2 and 4: every
// count must give the serial decode's records, in file order, and its
// skipped count. The damage lands on both sides of the chunk
// boundaries: non-JSON lines, blank and whitespace lines, a record
// that parses but Reduce counts as corrupt, a 1 MiB wreck, and a torn
// final line.
func TestOpenDecodeWorkerCounts(t *testing.T) {
	var data bytes.Buffer
	for i := 0; i < 3200; i++ {
		switch {
		case i == 1601:
			data.Write(bytes.Repeat([]byte{'z'}, 1<<20))
			data.WriteByte('\n')
		case i%97 == 0:
			fmt.Fprintf(&data, "x#!garbage %d\n", i)
		case i%89 == 0:
			data.WriteString("\n   \n")
		case i%83 == 0:
			fmt.Fprintf(&data, "{\"type\":\"haywire\",\"id\":\"c%d\"}\n", i)
		}
		rec := Record{Type: TypeSubmit, ID: fmt.Sprintf("r%06d", i), Seq: i, Spec: json.RawMessage(`{"kind":"density"}`)}
		if i%2 == 1 {
			rec = Record{Type: TypeTerminal, ID: fmt.Sprintf("r%06d", i-1), Seq: i - 1, State: "done",
				Result: json.RawMessage(fmt.Sprintf(`{"id":"r%06d","metrics":{"n":%d}}`, i-1, i))}
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		data.Write(append(line, '\n'))
	}
	data.WriteString(`{"type":"submit","id":"torn","se`)
	want, wantSkipped := serialReplay(data.Bytes())
	if len(want) < 3000 || wantSkipped < 30 {
		t.Fatalf("the journal replays %d records with %d skipped, want >= 3000 and >= 30", len(want), wantSkipped)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), data.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, skipped := mustOpen(t, dir)
		j.Close()
		if !sameReplay(recs, want) || skipped != wantSkipped {
			t.Errorf("GOMAXPROCS %d: Open replayed %d records (%d skipped), want %d (%d skipped)",
				procs, len(recs), skipped, len(want), wantSkipped)
		}
	}
}
