// Package jobstore is the durable, crash-safe job fabric behind the
// telemetry service: an append-only, fsync'd, versioned write-ahead log
// of job lifecycle records plus checkpoint compaction and a recovery
// path that rebuilds job state after any crash — including `kill -9`
// mid-append.
//
// Layout of a store directory:
//
//	wal.log          one "ballerino.job/v1" record per line, crc32c-framed
//	checkpoint.json  compacted snapshot of everything the WAL said so far
//
// Every Append is flushed with fsync before it returns, so an
// acknowledged record survives power loss. A record torn by a crash
// mid-write is detected by its frame checksum and truncated away on the
// next Open — torn tails are expected, corruption anywhere else is an
// error. Completed jobs keep their result (a canonical run manifest)
// content-addressed by the job's config+trace key, so a restarted server
// serves already-computed grid points without recomputation.
package jobstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Schema identifies the WAL record layout version. Replay refuses
// records from a different (future) schema instead of misreading them.
const Schema = "ballerino.job/v1"

// CheckpointSchema identifies the checkpoint snapshot layout version.
const CheckpointSchema = "ballerino.jobstore.checkpoint/v1"

// Op is a job lifecycle transition recorded in the WAL.
type Op string

// The five record kinds. A job's terminal state is OpCompleted or
// OpCanceled; everything else is replayed into a resumable state.
const (
	OpSubmitted     Op = "submitted"
	OpStarted       Op = "started"
	OpAttemptFailed Op = "attempt-failed"
	OpCompleted     Op = "completed"
	OpCanceled      Op = "canceled"
)

// Record is one WAL entry. Spec and Result are opaque to the store (the
// service layer owns their schema): Spec is the client's job submission,
// Result the canonical run manifest of a completed job.
type Record struct {
	Schema  string          `json:"schema"`
	Seq     uint64          `json:"seq"`
	Time    string          `json:"time,omitempty"`
	Op      Op              `json:"op"`
	Job     int             `json:"job"`
	Key     string          `json:"key,omitempty"`     // submitted/completed: config+trace content key
	Spec    json.RawMessage `json:"spec,omitempty"`    // submitted
	Attempt int             `json:"attempt,omitempty"` // started / attempt-failed
	Stage   string          `json:"stage,omitempty"`   // attempt-failed: *SimError stage ("timeout", "simulate", ...)
	Error   string          `json:"error,omitempty"`   // attempt-failed / canceled
	Result  json.RawMessage `json:"result,omitempty"`  // completed
}

// HistoryEvent is one lifecycle transition retained per job: the op, the
// wall-clock time the WAL recorded for it, and the attempt/stage/error
// details where the op carries them. History is what lets a restarted
// server reconstruct a job's pre-crash timeline — the lifecycle tracer
// synthesizes spans from these events at their original timestamps.
type HistoryEvent struct {
	Op      Op        `json:"op"`
	Time    time.Time `json:"time"`
	Attempt int       `json:"attempt,omitempty"`
	Stage   string    `json:"stage,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// JobRecord is the replayed state of one job: what the WAL (and the
// checkpoint beneath it) says happened to it so far.
type JobRecord struct {
	ID       int             `json:"id"`
	Key      string          `json:"key"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Attempts int             `json:"attempts,omitempty"` // started records seen
	Failures int             `json:"failures,omitempty"` // attempt-failed records seen
	Stage    string          `json:"stage,omitempty"`    // stage of the last failed attempt
	Error    string          `json:"error,omitempty"`    // error of the last failed attempt
	Terminal Op              `json:"terminal,omitempty"` // "", OpCompleted or OpCanceled
	Result   json.RawMessage `json:"result,omitempty"`   // canonical manifest when Terminal == OpCompleted
	History  []HistoryEvent  `json:"history,omitempty"`  // every transition, in WAL order
}

// Resumable reports whether the job must be re-enqueued by recovery: it
// was queued, running, or between retry attempts when the process died.
func (j *JobRecord) Resumable() bool { return j.Terminal == "" }

// Recovery summarises one Open's replay — the numbers behind the
// ballserved recovery gauges.
type Recovery struct {
	// Records is the number of WAL records replayed (after the checkpoint).
	Records int
	// CheckpointSeq is the sequence number the checkpoint covered (0 when
	// there was no checkpoint).
	CheckpointSeq uint64
	// TornTail reports that the WAL ended in a torn (partially written)
	// record, which was truncated away — the expected signature of a crash
	// mid-append.
	TornTail bool
	// Resumable is the number of non-terminal jobs recovery must re-enqueue.
	Resumable int
	// Completed is the number of jobs replayed into the completed state.
	Completed int
	// Duration is the wall time the replay took.
	Duration time.Duration
}

// Store is a durable job log. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	seq      uint64
	jobs     map[int]*JobRecord
	results  map[string]json.RawMessage // content key → canonical manifest
	recovery Recovery
	closed   bool

	// failAppends, when > 0, fails every Append after that many more
	// succeed — the test seam that exercises degraded-store paths without
	// a real disk failure.
	failAppends int64

	// observer, when set, receives per-append latency stats (see
	// SetObserver). Called outside mu.
	observer func(AppendStats)
}

// AppendStats is one Append's latency breakdown, delivered to the
// observer installed with SetObserver: how long the whole durable write
// took and how much of that was the fsync — the dominant term on real
// disks and the source of the ballserved_wal_fsync_seconds histogram.
type AppendStats struct {
	Op    Op
	Job   int
	Total time.Duration
	Fsync time.Duration
}

// SetObserver installs fn to receive AppendStats after every successful
// Append. fn is invoked outside the store's lock (it may call back into
// the store) but serialised per-store with other appends' observations
// in WAL order is NOT guaranteed — treat it as a metrics sink, not a
// replication stream. nil uninstalls.
func (s *Store) SetObserver(fn func(AppendStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	walName        = "wal.log"
	checkpointName = "checkpoint.json"
)

// ErrCorrupt wraps replay failures that are not a torn tail: a checksum
// mismatch in the middle of the log, a record from an unknown schema, or
// an unparsable checkpoint.
var ErrCorrupt = errors.New("jobstore: corrupt store")

// Open creates dir if needed, loads the checkpoint, replays the WAL on
// top of it, truncates a torn tail, and returns the store ready for
// appends. The replay summary is available via Recovery.
func Open(dir string) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{
		dir:     dir,
		jobs:    make(map[int]*JobRecord),
		results: make(map[string]json.RawMessage),
	}
	if err := s.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.f = f
	for _, j := range s.jobs {
		if j.Resumable() {
			s.recovery.Resumable++
		} else if j.Terminal == OpCompleted {
			s.recovery.Completed++
		}
	}
	s.recovery.Duration = time.Since(start)
	return s, nil
}

func (s *Store) walPath() string        { return filepath.Join(s.dir, walName) }
func (s *Store) checkpointPath() string { return filepath.Join(s.dir, checkpointName) }

// checkpoint is the on-disk snapshot format.
type checkpoint struct {
	Schema string       `json:"schema"`
	Seq    uint64       `json:"seq"`
	Jobs   []*JobRecord `json:"jobs"`
}

func (s *Store) loadCheckpoint() error {
	b, err := os.ReadFile(s.checkpointPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	var cp checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
	}
	if cp.Schema != CheckpointSchema {
		return fmt.Errorf("%w: checkpoint schema %q, want %q", ErrCorrupt, cp.Schema, CheckpointSchema)
	}
	s.seq = cp.Seq
	s.recovery.CheckpointSeq = cp.Seq
	for _, j := range cp.Jobs {
		s.jobs[j.ID] = j
		if j.Terminal == OpCompleted && j.Key != "" && j.Result != nil {
			s.results[j.Key] = j.Result
		}
	}
	return nil
}

// replayWAL reads every framed record after the checkpoint and folds it
// into the job map. A torn tail — a final line whose frame fails its
// checksum or that has no terminator — is truncated; a bad frame with
// valid records after it is corruption.
func (s *Store) replayWAL() error {
	f, err := os.Open(s.walPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer f.Close()

	var (
		valid    int64 // byte offset just past the last valid record
		sc       = bufio.NewScanner(f)
		pendErr  error
		pendOff  int64
		replayed int
	)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // scanner strips the \n
		if pendErr != nil {
			// A bad frame followed by another line: not a torn tail.
			return fmt.Errorf("%w: offset %d: %v", ErrCorrupt, pendOff, pendErr)
		}
		rec, err := decodeFrame(line)
		if err != nil {
			pendErr, pendOff = err, valid
			valid += lineLen
			continue
		}
		if rec.Seq > s.seq {
			s.apply(&rec)
			s.seq = rec.Seq
			replayed++
		}
		valid += lineLen
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	s.recovery.Records = replayed
	if pendErr != nil {
		// Torn tail: drop it so the next append starts a clean frame.
		s.recovery.TornTail = true
		if err := os.Truncate(s.walPath(), pendOff); err != nil {
			return fmt.Errorf("jobstore: truncating torn tail: %w", err)
		}
		return nil
	}
	// A file ending without its newline terminator: the scanner hands the
	// final bytes over as a line, so they were either flagged above (torn
	// tail) or decoded whole — but an unterminated valid record must be
	// re-terminated before the next append glues a new frame onto it.
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		buf := make([]byte, 1)
		if _, err := f.ReadAt(buf, fi.Size()-1); err == nil && buf[0] != '\n' {
			t, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("jobstore: %w", err)
			}
			if _, err := t.WriteString("\n"); err != nil {
				t.Close()
				return fmt.Errorf("jobstore: %w", err)
			}
			if err := t.Close(); err != nil {
				return fmt.Errorf("jobstore: %w", err)
			}
		}
	}
	return nil
}

// decodeFrame parses one "crc32c-hex space json" line.
func decodeFrame(line []byte) (Record, error) {
	var rec Record
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return rec, fmt.Errorf("malformed frame")
	}
	want, err := strconv.ParseUint(string(line[:sp]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("malformed frame checksum")
	}
	payload := line[sp+1:]
	if got := crc32.Checksum(payload, crcTable); got != uint32(want) {
		return rec, fmt.Errorf("checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("record JSON: %v", err)
	}
	if rec.Schema != Schema {
		return rec, fmt.Errorf("record schema %q, want %q", rec.Schema, Schema)
	}
	return rec, nil
}

// apply folds one record into the in-memory job state.
func (s *Store) apply(rec *Record) {
	j := s.jobs[rec.Job]
	if j == nil {
		j = &JobRecord{ID: rec.Job}
		s.jobs[rec.Job] = j
	}
	// Retain the transition itself (with the WAL's wall-clock time) so a
	// restarted server can rebuild the job's pre-crash timeline.
	ts, _ := time.Parse(time.RFC3339Nano, rec.Time)
	j.History = append(j.History, HistoryEvent{
		Op: rec.Op, Time: ts, Attempt: rec.Attempt, Stage: rec.Stage, Error: rec.Error,
	})
	switch rec.Op {
	case OpSubmitted:
		j.Key = rec.Key
		j.Spec = rec.Spec
	case OpStarted:
		if rec.Attempt > j.Attempts {
			j.Attempts = rec.Attempt
		}
	case OpAttemptFailed:
		j.Failures++
		j.Stage = rec.Stage
		j.Error = rec.Error
	case OpCompleted:
		j.Terminal = OpCompleted
		j.Result = rec.Result
		if rec.Key != "" {
			j.Key = rec.Key
		}
		if j.Key != "" && rec.Result != nil {
			s.results[j.Key] = rec.Result
		}
	case OpCanceled:
		j.Terminal = OpCanceled
		j.Error = rec.Error
	}
}

// Append assigns the record a sequence number and timestamp, writes it,
// fsyncs, and folds it into the in-memory state. The record is durable
// when Append returns nil.
func (s *Store) Append(rec Record) error {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("jobstore: store closed")
	}
	if s.failAppends > 0 {
		s.failAppends--
		if s.failAppends == 0 {
			s.mu.Unlock()
			return errors.New("jobstore: injected append failure (chaos)")
		}
	}
	s.seq++
	rec.Schema = Schema
	rec.Seq = s.seq
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	payload, err := json.Marshal(rec)
	if err != nil {
		s.seq--
		s.mu.Unlock()
		return fmt.Errorf("jobstore: %w", err)
	}
	frame := fmt.Sprintf("%08x %s\n", crc32.Checksum(payload, crcTable), payload)
	if _, err := s.f.WriteString(frame); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("jobstore: %w", err)
	}
	syncStart := time.Now()
	if err := s.f.Sync(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("jobstore: %w", err)
	}
	fsync := time.Since(syncStart)
	s.apply(&rec)
	observer := s.observer
	s.mu.Unlock()
	if observer != nil {
		observer(AppendStats{Op: rec.Op, Job: rec.Job, Total: time.Since(start), Fsync: fsync})
	}
	return nil
}

// FailAppendsAfter arms the failure hook: the next n-1 Appends succeed,
// the n-th fails with an injected error (and the hook disarms). n <= 0
// disarms. Test harnesses use this to drive the degraded-store path.
func (s *Store) FailAppendsAfter(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAppends = n
}

// Checkpoint compacts the store: the full job state is written to a
// temporary snapshot, fsynced, atomically renamed over checkpoint.json,
// and the WAL is truncated. A crash anywhere in between leaves either
// the old checkpoint + full WAL or the new checkpoint + (possibly
// not-yet-truncated) WAL — both replay to the same state, because replay
// skips records at or below the checkpoint's sequence number.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("jobstore: store closed")
	}
	cp := checkpoint{Schema: CheckpointSchema, Seq: s.seq, Jobs: s.jobsLocked()}
	b, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	tmp := s.checkpointPath() + ".tmp"
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.checkpointPath()); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := s.f.Seek(0, 0); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return s.f.Sync()
}

func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Recovery returns the summary of the replay Open performed.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// jobsLocked snapshots the job records in ID order. Caller holds mu.
func (s *Store) jobsLocked() []*JobRecord {
	out := make([]*JobRecord, 0, len(s.jobs))
	for _, j := range s.jobs {
		cp := *j
		out = append(out, &cp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Jobs snapshots every job the store knows about, in ID order.
func (s *Store) Jobs() []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobsLocked()
}

// MaxJobID returns the highest job ID the store has seen (0 when empty)
// — the restart continuation point for the service's ID counter.
func (s *Store) MaxJobID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0
	for id := range s.jobs {
		if id > max {
			max = id
		}
	}
	return max
}

// Result returns the stored canonical manifest for a config+trace
// content key, if any job with that key ever completed. The returned
// bytes are shared — treat them as immutable.
func (s *Store) Result(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[key]
	return r, ok
}

// Results returns the number of distinct content-addressed results held.
func (s *Store) Results() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// Close fsyncs and closes the WAL file handle. The store refuses further
// appends; Open the directory again to resume.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	return s.f.Close()
}
