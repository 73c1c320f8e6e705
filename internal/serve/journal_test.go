package serve

// Unit tests of the WAL itself: framing round-trips, torn-tail and
// CRC-corruption truncation, replay folding, compaction idempotence and
// the crash-simulation (kill) contract. The serve-level recovery
// behaviour is covered by chaos_test.go.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpgasat/internal/obs"
)

// openTestJournal opens a journal over dir and fails the test on error.
func openTestJournal(t *testing.T, dir string) (*Journal, []RecoveredJob, int64) {
	t.Helper()
	j, recovered, maxID, err := OpenJournal(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return j, recovered, maxID
}

func submitRec(id, key string) journalRecord {
	return journalRecord{
		Kind: recSubmit, ID: id, Key: key,
		Req: &SolveRequest{Graph: triangleCol, Width: 3},
		At:  time.Now(),
	}
}

func doneRec(id, key, answer string) journalRecord {
	return journalRecord{
		Kind: recDone, ID: id, Key: key,
		View: &JobView{ID: id, State: StateDone, Answer: answer},
		At:   time.Now(),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recovered, maxID := openTestJournal(t, dir)
	if len(recovered) != 0 || maxID != 0 {
		t.Fatalf("fresh journal recovered %d jobs, maxID %d", len(recovered), maxID)
	}
	if err := j.append(submitRec("j00000001", "k1")); err != nil {
		t.Fatal(err)
	}
	// Older journals hold advisory "start" records; replay must skip them.
	if err := j.append(journalRecord{Kind: "start", ID: "j00000001", At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(submitRec("j00000002", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(doneRec("j00000001", "k1", AnswerRoutable)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recovered, maxID = openTestJournal(t, dir)
	if maxID != 2 {
		t.Errorf("maxID = %d, want 2", maxID)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(recovered))
	}
	// Submission order is preserved.
	if recovered[0].ID != "j00000001" || recovered[1].ID != "j00000002" {
		t.Fatalf("recovered order %s, %s", recovered[0].ID, recovered[1].ID)
	}
	if recovered[0].View == nil || recovered[0].View.Answer != AnswerRoutable || recovered[0].Key != "k1" {
		t.Errorf("done job restored wrong: %+v", recovered[0])
	}
	if recovered[0].FinishedAt.IsZero() {
		t.Error("done job lost its completion time across replay")
	}
	if recovered[1].View != nil {
		t.Errorf("pending job came back with a view: %+v", recovered[1].View)
	}
	if recovered[1].Req.Graph != triangleCol || recovered[1].Req.Width != 3 {
		t.Errorf("pending job lost its request: %+v", recovered[1].Req)
	}
}

// activeSegment returns the path of the highest-sequence WAL segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir)
	if err := j.append(submitRec("j00000001", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(submitRec("j00000002", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last record mid-payload, as a crash during
	// a write would.
	path := activeSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, recovered, _, err := OpenJournal(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != "j00000001" {
		t.Fatalf("recovered %+v, want only the first record", recovered)
	}
	if got := reg.Counter(MetricJournalTruncated).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJournalTruncated, got)
	}
}

func TestJournalCRCCorruptionTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir)
	if err := j.append(submitRec("j00000001", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(submitRec("j00000002", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the second record's payload; its CRC no longer
	// matches and replay must stop before it.
	path := activeSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(journalMagic)
	first := 8 + int(binary.LittleEndian.Uint32(raw[off:]))
	raw[off+first+12] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, recovered, _, err := OpenJournal(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != "j00000001" {
		t.Fatalf("recovered %+v, want only the intact record", recovered)
	}
	if got := reg.Counter(MetricJournalTruncated).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJournalTruncated, got)
	}
}

// TestJournalCompactionIdempotent reopens a journal repeatedly without
// writing anything new: the recovered state must be identical every
// time, and the old segments must be reclaimed.
func TestJournalCompactionIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir)
	if err := j.append(submitRec("j00000001", "k1")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(doneRec("j00000001", "k1", AnswerUnroutable)); err != nil {
		t.Fatal(err)
	}
	if err := j.append(submitRec("j00000002", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		jr, recovered, maxID, err := OpenJournal(dir, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if maxID != 2 || len(recovered) != 2 {
			t.Fatalf("round %d: recovered %d jobs maxID %d, want 2/2", round, len(recovered), maxID)
		}
		if recovered[0].View == nil || recovered[0].View.Answer != AnswerUnroutable {
			t.Fatalf("round %d: done job decayed: %+v", round, recovered[0])
		}
		if recovered[1].View != nil || recovered[1].Req.Graph == "" {
			t.Fatalf("round %d: pending job decayed: %+v", round, recovered[1])
		}
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("round %d: %d segments on disk, want 1 after compaction", round, len(segs))
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalKillDropsSubsequentAppends proves the crash-simulation
// contract: records fsynced before kill survive, appends after it
// write nothing and report failure — so an accept path in flight
// during the "crash" rejects instead of acknowledging a lost job.
func TestJournalKillDropsSubsequentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir)
	if err := j.append(submitRec("j00000001", "")); err != nil {
		t.Fatal(err)
	}
	j.kill()
	if err := j.append(doneRec("j00000001", "", AnswerRoutable)); err == nil {
		t.Fatal("post-kill append must fail; a dead journal cannot make records durable")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recovered, _ := openTestJournal(t, dir)
	if len(recovered) != 1 || recovered[0].View != nil {
		t.Fatalf("recovered %+v, want one still-pending job", recovered)
	}
}

// TestJournalRotation drives the active segment past the size cap and
// checks that appends continue into a new segment and replay still sees
// everything.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir)
	// Shrink the effective cap by preloading size; the const is 64MB,
	// far too big to write in a unit test.
	j.mu.Lock()
	j.size = journalSegMax
	j.mu.Unlock()
	if err := j.append(submitRec("j00000001", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(submitRec("j00000002", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("%d segments after forced rotation, want 2", len(segs))
	}
	_, recovered, _ := openTestJournal(t, dir)
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs across rotated segments, want 2", len(recovered))
	}
}
