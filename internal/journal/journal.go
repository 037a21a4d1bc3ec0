// Package journal is a durable append-only run log: one JSONL file
// (<dir>/runs.jsonl) holding a submit record per accepted run and a
// terminal record per finished one. A frontend that journals both can
// survive a kill -9: on restart it replays the file, serves every
// journaled result without recomputing it, and re-submits runs whose
// submit record has no terminal record (the interrupted ones).
//
// The format is deliberately boring — one self-contained JSON object
// per line — so the file is greppable, ingestible by log tooling, and
// recoverable by hand. Appends are synced to disk before returning;
// a torn final line from a mid-write crash is skipped (and reported)
// on replay rather than poisoning the log. Replay reads the lines in
// one pass and decodes them on up to GOMAXPROCS workers, each over a
// contiguous run of lines, so records come back in file order.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Record types.
const (
	// TypeSubmit records an accepted run: ID, Seq, and the opaque
	// frontend Spec payload needed to re-submit it.
	TypeSubmit = "submit"
	// TypeTerminal records a finished run: State (done/canceled/
	// failed), the Result payload for done runs, Error otherwise.
	TypeTerminal = "terminal"
)

// Record is one journal line. Spec and Result are opaque payloads the
// journal round-trips verbatim — the serve layer stores its wire
// request and the results-model JSON there.
type Record struct {
	Type  string `json:"type"`
	ID    string `json:"id"`
	Seq   int    `json:"seq,omitempty"`
	Time  string `json:"time,omitempty"` // RFC3339Nano, informational
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	Spec   json.RawMessage `json:"spec,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Snap is the frontend's final wire snapshot for terminal records,
	// replayed verbatim so restarted services keep serving the run's
	// last observed view.
	Snap json.RawMessage `json:"snapshot,omitempty"`
	// Fingerprint is the content hash of the Spec a done run executed
	// (terminal records), so a replayed result answers only for the
	// inputs it actually ran on.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Journal is an open, appendable run log. Safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// FileName is the journal's file name under its data directory.
const FileName = "runs.jsonl"

// Open opens (creating if needed) the journal under dir, replays the
// existing records, and returns the journal positioned for appends.
// Unparseable lines — a torn final line from a crash mid-append, or
// hand-edited damage anywhere in the file — are skipped; skipped
// reports how many. A bad interior line never aborts the replay: the
// healthy suffix after it is still recovered. (Records that parse but
// are semantically broken are Reduce's Corrupt counter instead.)
// The lines are decoded on up to GOMAXPROCS goroutines; records keep
// file order whatever their number.
func Open(dir string) (j *Journal, recs []Record, skipped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	// bufio.Reader, not Scanner: a Scanner aborts the whole replay with
	// ErrTooLong when damage glues lines together past its buffer cap,
	// throwing away every healthy record after it. ReadBytes has no
	// line-length ceiling, so an oversized wreck is just one more
	// skipped line.
	rd := bufio.NewReaderSize(f, 64*1024)
	var lines [][]byte
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("journal: reading %s: %w", path, rerr)
		}
	}
	recs, skipped = decode(lines)
	// Position at the end for appends (the reader may have over-read).
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	// Seal a torn final line (crash mid-append left no newline) so the
	// next append starts a fresh line instead of extending the wreck.
	if end > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, end-1); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("journal: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, nil, 0, fmt.Errorf("journal: %w", err)
			}
		}
	}
	return &Journal{f: f}, recs, skipped, nil
}

// decode unmarshals each line into a Record, in line order, and counts
// the lines that are not a JSON record. Up to GOMAXPROCS workers take
// contiguous chunks; each writes only its own slots of rec and ok, and
// drops each line once decoded so the GC can free it.
func decode(lines [][]byte) (recs []Record, skipped int) {
	rec := make([]Record, len(lines))
	ok := make([]bool, len(lines))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(lines)))
	chunk := (len(lines) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(lines); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ok[i] = json.Unmarshal(lines[i], &rec[i]) == nil
				lines[i] = nil
			}
		}(lo, min(lo+chunk, len(lines)))
	}
	wg.Wait()
	recs = rec[:0]
	for i := range rec {
		if !ok[i] {
			skipped++
			continue
		}
		recs = append(recs, rec[i])
	}
	return recs, skipped
}

// Append writes one record and syncs it to disk. An empty Time is
// stamped with the current wall clock.
func (j *Journal) Append(rec Record) error {
	if rec.Type == "" || rec.ID == "" {
		return fmt.Errorf("journal: record needs Type and ID, got %+v", rec)
	}
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Entry is the replayed state of one run: its submit record plus its
// terminal record, nil while the run was still in flight when the
// journal was written — i.e. an interrupted run the frontend should
// re-submit.
type Entry struct {
	Submit   Record
	Terminal *Record
}

// Interrupted reports whether the run never reached a terminal state.
func (e *Entry) Interrupted() bool { return e.Terminal == nil }

// Reduce folds raw records into per-run entries in submission order
// and reports the highest sequence number seen (the id floor for new
// submissions). Terminal records without a submit record are dropped;
// when a run has several terminal records the last one wins.
//
// Corrupt counts records that parsed as JSON but are semantically
// broken — an unknown Type or a missing ID (Append never writes
// either, so they mean on-disk damage that still decodes). They are
// skipped, never folded; callers surface the count so silent damage
// is visible.
func Reduce(recs []Record) (entries []*Entry, maxSeq, corrupt int) {
	byID := make(map[string]*Entry)
	for _, rec := range recs {
		if rec.ID == "" || (rec.Type != TypeSubmit && rec.Type != TypeTerminal) {
			corrupt++
			continue
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		switch rec.Type {
		case TypeSubmit:
			if _, dup := byID[rec.ID]; dup {
				continue // first submit wins
			}
			e := &Entry{Submit: rec}
			byID[rec.ID] = e
			entries = append(entries, e)
		case TypeTerminal:
			if e, ok := byID[rec.ID]; ok {
				term := rec
				e.Terminal = &term
			}
		}
	}
	return entries, maxSeq, corrupt
}
