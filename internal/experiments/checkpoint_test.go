package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcpim/internal/checkpoint"
	"dcpim/internal/sim"
)

// assertRunsEqual requires every observable of two runs to match:
// digest, event count, flow records, counters, and metrics artifacts.
// ShardStats is deliberately excluded — window placement changes epoch
// bookkeeping without changing execution.
func assertRunsEqual(t *testing.T, what string, want, got RunResult) {
	t.Helper()
	if got.Digest != want.Digest {
		t.Errorf("%s: digest %#016x != %#016x", what, got.Digest, want.Digest)
	}
	if got.Events != want.Events {
		t.Errorf("%s: events %d != %d", what, got.Events, want.Events)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("%s: flow records differ", what)
	}
	if got.Counters != want.Counters {
		t.Errorf("%s: counters %+v != %+v", what, got.Counters, want.Counters)
	}
	if !bytes.Equal(got.MetricsCSV, want.MetricsCSV) {
		t.Errorf("%s: metrics CSV differs", what)
	}
	if !bytes.Equal(got.MetricsJSON, want.MetricsJSON) {
		t.Errorf("%s: metrics JSON differs", what)
	}
}

// TestResumeEquivalence is the resume-equivalence property proof:
// checkpoint at a randomized mid-run cadence, resume from a randomized
// snapshot, and require every observable — digest, records, counters,
// CSV/JSON, and all post-resume snapshots — byte-identical to the
// uninterrupted run, across shard counts, with and without a fault
// schedule. The checkpointed run itself must also match a plain
// (never-checkpointed) run, proving capture is pure. The "heap" in the
// subtest names is the engine's one residual event queue.
func TestResumeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, withFaults := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			every := sim.Duration(int64(2*sim.Millisecond) / int64(3+rng.Intn(4)))
			pick := rng.Int63()
			t.Run(fmt.Sprintf("faults=%v/shards=%d/heap", withFaults, shards), func(t *testing.T) {
				prep := func(withCk bool) RunSpec {
					spec := goldenSpec(t, DCPIM, withFaults)
					spec.Shards = shards
					spec.Metrics = &MetricsSpec{Interval: 10 * sim.Microsecond, Label: "ckpt-prop"}
					if withCk {
						spec.Checkpoint = &CheckpointSpec{Every: every, Journal: true}
					}
					return spec
				}
				plain := Run(prep(false))
				ckRes, snaps := RunCheckpointed(prep(true))
				assertRunsEqual(t, "checkpointed vs plain", plain, ckRes)
				if len(snaps) == 0 {
					t.Fatalf("no snapshots at cadence %v", every)
				}
				k := int(pick % int64(len(snaps)))
				resRes, post, err := Resume(prep(true), snaps[k])
				if err != nil {
					t.Fatalf("resume from snapshot %d (t=%v): %v", k, sim.Time(snaps[k].Meta.TimePs), err)
				}
				assertRunsEqual(t, fmt.Sprintf("resumed-from-%d vs plain", k), plain, resRes)
				want := snaps[k+1:]
				if len(post) != len(want) {
					t.Fatalf("resume took %d post-resume snapshots, uninterrupted took %d", len(post), len(want))
				}
				for i := range post {
					if err := checkpoint.Compare(want[i], post[i]); err != nil {
						t.Errorf("post-resume snapshot %d: %v", want[i].Meta.Index, err)
					}
				}
			})
		}
	}
}

// TestResumeRejectsWrongSpec locks the compatibility gate: resuming a
// snapshot under a different seed must fail with a typed CompatError —
// before any replay work — never by silently diverging.
func TestResumeRejectsWrongSpec(t *testing.T) {
	spec := goldenSpec(t, DCPIM, false)
	spec.Checkpoint = &CheckpointSpec{Every: 500 * sim.Microsecond}
	_, snaps := RunCheckpointed(spec)
	other := goldenSpec(t, DCPIM, false)
	other.Seed++
	other.Checkpoint = spec.Checkpoint
	_, _, err := Resume(other, snaps[0])
	var ce *checkpoint.CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("want CompatError, got %v", err)
	}
	if ce.Field != "seed" {
		t.Errorf("CompatError field %q, want \"seed\"", ce.Field)
	}
}

// TestBisectLocalizesInjectedDivergence injects a one-event divergence —
// the golden fault schedule's loss burst shifted 1µs later, which keeps
// the scheduled-event count (and thus all setup seq allocation)
// unchanged — and requires Bisect to localize it to the first snapshot
// window and to the single perturbed event.
func TestBisectLocalizesInjectedDivergence(t *testing.T) {
	const every = 250 * sim.Microsecond
	run := func(perturb bool) []*checkpoint.Snapshot {
		spec := goldenSpec(t, DCPIM, true)
		if perturb {
			ev := &spec.Faults.Events[1] // loss burst at t=60µs
			if ev.At != sim.Time(60*sim.Microsecond) {
				t.Fatalf("golden schedule changed: event 1 at %v, want 60µs", ev.At)
			}
			ev.At = ev.At.Add(sim.Microsecond)
		}
		spec.Checkpoint = &CheckpointSpec{Every: every, Journal: true}
		_, snaps := RunCheckpointed(spec)
		return snaps
	}
	ref := run(false)
	got := run(true)
	rep, err := Bisect(ref, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstBad != 0 {
		t.Errorf("first bad snapshot index %d, want 0 (fault at 60µs is inside the first window)", rep.FirstBad)
	}
	if rep.WindowEnd != sim.Time(every) {
		t.Errorf("window end %v, want %v", rep.WindowEnd, sim.Time(every))
	}
	ev := rep.Event
	if ev == nil {
		t.Fatal("bisect found no event-level divergence despite journals")
	}
	if ev.Engine != 0 {
		t.Errorf("diverging engine %d, want 0 (single shard)", ev.Engine)
	}
	// The reference side's diverging event is exactly the unperturbed
	// fault firing: everything before 60µs is identical by construction.
	if ev.RefAt != sim.Time(60*sim.Microsecond) {
		t.Errorf("first diverging event at %v on reference side, want 60µs (the injected perturbation)", ev.RefAt)
	}
	if ev.RefAt == ev.GotAt && ev.RefSeq == ev.GotSeq && !ev.RefMissing && !ev.GotMissing {
		t.Error("event divergence does not actually differ")
	}
}

// TestBisectNoDivergence: identical streams must refuse to bisect
// rather than invent a divergence.
func TestBisectNoDivergence(t *testing.T) {
	spec := goldenSpec(t, DCPIM, false)
	spec.Checkpoint = &CheckpointSpec{Every: 500 * sim.Microsecond, Journal: true}
	_, a := RunCheckpointed(spec)
	spec2 := goldenSpec(t, DCPIM, false)
	spec2.Checkpoint = spec.Checkpoint
	_, b := RunCheckpointed(spec2)
	if _, err := Bisect(a, b); err == nil {
		t.Fatal("bisect of identical streams succeeded, want error")
	}
}

// fixtureSpec pins the golden snapshot fixture's run: the canonical
// ckpt-experiment spec at committed parameters (16-host FatTree).
func fixtureSpec() RunSpec {
	return ckptSpec(7, 16, 200*sim.Microsecond, 50*sim.Microsecond, 0, "")
}

const fixturePath = "testdata/ckpt-fattree16.dcpimck"

// writeFixture runs fixtureSpec and writes its second snapshot, the
// fixture, to path.
func writeFixture(t *testing.T, path string) {
	t.Helper()
	_, snaps := RunCheckpointed(fixtureSpec())
	if len(snaps) != 4 {
		t.Fatalf("fixture run took %d snapshots, want 4", len(snaps))
	}
	var buf bytes.Buffer
	if err := snaps[1].Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCheckpointFixture locks the on-disk snapshot format and the
// simulation's event stream to a checked-in fixture. A failure here
// means checkpoint files written by earlier builds no longer resume: if
// the behavior change is deliberate, regenerate with
//
//	DCPIM_REGEN_CKPT=1 go test ./internal/experiments -run TestGoldenCheckpointFixture
//
// and bump checkpoint.Version if the byte format itself changed.
func TestGoldenCheckpointFixture(t *testing.T) {
	if os.Getenv("DCPIM_REGEN_CKPT") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeFixture(t, fixturePath)
		t.Logf("regenerated %s", fixturePath)
	}
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("golden fixture missing (see regeneration note above): %v", err)
	}
	snap, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden fixture unreadable: %v", err)
	}

	t.Run("resume", func(t *testing.T) {
		res, post, err := Resume(fixtureSpec(), snap)
		if err != nil {
			t.Fatalf("golden fixture no longer resumes — the event stream or capture format changed (see regeneration note): %v", err)
		}
		if res.Digest == 0 {
			t.Error("resumed run produced no digest")
		}
		if len(post) != 2 {
			t.Errorf("post-resume snapshots = %d, want 2 (fixture is snapshot 1 of 4)", len(post))
		}
	})

	t.Run("regenerates-byte-identical", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "fixture.dcpimck")
		writeFixture(t, path)
		fresh, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, raw) {
			t.Fatalf("regenerated fixture (%d bytes) differs from %s (%d bytes): the snapshot format or the event stream changed (see regeneration note)",
				len(fresh), fixturePath, len(raw))
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		bad := *snap
		bad.Meta.Version = checkpoint.Version + 1
		_, _, err := Resume(fixtureSpec(), &bad)
		var ve *checkpoint.VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("want VersionError, got %v", err)
		}
		if ve.Got != checkpoint.Version+1 || ve.Want != checkpoint.Version {
			t.Errorf("VersionError %+v, want got=%d want=%d", ve, checkpoint.Version+1, checkpoint.Version)
		}
	})

	t.Run("topology-mismatch", func(t *testing.T) {
		spec := ckptSpec(7, 128, 200*sim.Microsecond, 50*sim.Microsecond, 0, "")
		_, _, err := Resume(spec, snap)
		var ce *checkpoint.CompatError
		if !errors.As(err, &ce) {
			t.Fatalf("want CompatError, got %v", err)
		}
		if ce.Field != "hosts" {
			t.Errorf("CompatError field %q, want \"hosts\"", ce.Field)
		}
	})

	t.Run("corrupted-bytes", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[len(mut)/2] ^= 0x40
		if _, err := checkpoint.Read(bytes.NewReader(mut)); err == nil {
			t.Fatal("corrupted fixture read succeeded, want checksum error")
		}
	})
}

// TestCkptSpecFromMetaRoundTrip: a snapshot's metadata alone must
// reconstruct the exact spec it came from (the property -resume relies
// on), proven by the spec-hash gate inside Resume accepting it.
func TestCkptSpecFromMetaRoundTrip(t *testing.T) {
	spec := ckptSpec(11, 16, 120*sim.Microsecond, 40*sim.Microsecond, 4, "")
	_, snaps := RunCheckpointed(spec)
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	rebuilt := ckptSpecFromMeta(Options{}, snaps[0].Meta)
	if _, _, err := Resume(rebuilt, snaps[0]); err != nil {
		t.Fatalf("spec rebuilt from meta does not resume its own snapshot: %v", err)
	}
}

// TestResumeRejectsLadderSnapshot: a snapshot taken while the engine
// could still run the ladder queue records "ladder" as its queue
// discipline. Nothing can replay it now, so Resume must refuse it with a
// typed CompatError naming the field, not by diverging mid-replay.
func TestResumeRejectsLadderSnapshot(t *testing.T) {
	spec := ckptSpec(11, 16, 120*sim.Microsecond, 40*sim.Microsecond, 0, "")
	_, snaps := RunCheckpointed(spec)
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	if got := snaps[0].Meta.Queue; got != "heap" {
		t.Fatalf("fresh snapshot records queue discipline %q, want \"heap\"", got)
	}
	old := *snaps[0]
	old.Meta.Queue = "ladder"
	var buf bytes.Buffer
	if err := old.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(&buf)
	if err != nil {
		t.Fatalf("re-encoded snapshot unreadable: %v", err)
	}
	_, _, err = Resume(spec, snap)
	var ce *checkpoint.CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("want CompatError, got %v", err)
	}
	if ce.Field != "queue discipline" || ce.Got != "ladder" || ce.Want != "heap" {
		t.Errorf("CompatError %+v, want field \"queue discipline\", got ladder, want heap", ce)
	}
}
