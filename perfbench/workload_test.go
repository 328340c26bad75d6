package main

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

func TestSeedFixesKeyStream(t *testing.T) {
	draw := func(seed uint64, lane, updatePct int) []int64 {
		s := newStream(seed, lane, updatePct)
		out := make([]int64, 0, 2000)
		for i := 0; i < 1000; i++ {
			op, key := s.next()
			if key < 0 || key >= customers {
				t.Fatalf("key %d outside [0, %d)", key, customers)
			}
			out = append(out, int64(op), key)
		}
		return out
	}
	same := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a := draw(7, 0, 50)
	if !same(a, draw(7, 0, 50)) {
		t.Fatal("the same seed and lane gave different streams")
	}
	if same(a, draw(8, 0, 50)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	if same(a, draw(7, 1, 50)) {
		t.Fatal("lanes 0 and 1 share a stream")
	}

	// The stream is the paper's 80-20 skew: about 80% of references go
	// to the hottest 20% of keys (key = rank - 1), and updatePct of the
	// requests are UPDATEs.
	s := newStream(1, 0, 50)
	hot, updates := 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		op, key := s.next()
		if key < customers/5 {
			hot++
		}
		if op == opUpdate {
			updates++
		}
	}
	if f := float64(hot) / n; f < 0.78 || f > 0.82 {
		t.Errorf("hottest 20%% of keys drew %.3f of references, want about 0.8", f)
	}
	if f := float64(updates) / n; f < 0.48 || f > 0.52 {
		t.Errorf("update share %.3f, want about 0.5", f)
	}
}

// fakeClock advances only when slept on, overshooting every sleep the
// way time.Sleep does.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	sleeps    []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d + c.overshoot)
}

func TestOpenLoopReleasesOnMillisecondTicks(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: 100 * time.Microsecond}
	const n, interval = 100, 500 * time.Microsecond // 2,000 requests/s
	jobs := make(chan job, n)
	lateness := generate(context.Background(), clk, start, interval, n, newStream(1, 1, 0), jobs)
	close(jobs)

	if len(lateness) != n || len(jobs) != n {
		t.Fatalf("released %d jobs with %d lateness samples, want %d", len(jobs), len(lateness), n)
	}
	for _, d := range clk.sleeps {
		if d < minTick {
			t.Fatalf("slept %v, below the %v tick", d, minTick)
		}
	}
	i := 0
	releases := map[time.Time]int{}
	for j := range jobs {
		if want := start.Add(time.Duration(i) * interval); !j.due.Equal(want) {
			t.Fatalf("job %d due %v, want %v", i, j.due, want)
		}
		if j.release.Before(j.due) {
			t.Fatalf("job %d released %v before it was due", i, j.due.Sub(j.release))
		}
		if got := j.release.Sub(j.due).Nanoseconds(); lateness[i] != got {
			t.Fatalf("job %d lateness %d, want release - due = %d", i, lateness[i], got)
		}
		releases[j.release]++
		i++
	}
	// A 1.1 ms tick at a 0.5 ms interval releases two or three jobs at once.
	if len(releases) > n/2 {
		t.Errorf("%d distinct release instants for %d jobs: not batched per tick", len(releases), n)
	}
}

// slowTarget answers every GET with a valid record after a fixed delay.
type slowTarget struct{ delay time.Duration }

func (s slowTarget) Get(_ context.Context, key int64) ([]byte, error) {
	time.Sleep(s.delay)
	rec := make([]byte, recordSize)
	binary.LittleEndian.PutUint64(rec, uint64(key))
	return rec, nil
}
func (slowTarget) Update(context.Context, int64, byte) error { return nil }
func (slowTarget) Scan(context.Context) (int, error)         { return customers, nil }

func TestLatencyIsTimedFromRelease(t *testing.T) {
	l := &lane{t: slowTarget{delay: time.Millisecond}}
	var tl tally
	// Released 5 ms ago (it waited behind earlier requests): the wait counts.
	l.do(context.Background(), opGet, 42, time.Now().Add(-5*time.Millisecond), &tl)
	if tl.attempted != 1 || tl.ok() != 1 {
		t.Fatalf("tally %+v, want one good request", tl)
	}
	if got := time.Duration(tl.lat[opGet][0]); got < 6*time.Millisecond {
		t.Errorf("latency %v, want at least the 5 ms since release plus the 1 ms call", got)
	}
}

func TestCheckRecord(t *testing.T) {
	rec := func(id int64, fill byte) []byte {
		b := make([]byte, recordSize)
		binary.LittleEndian.PutUint64(b, uint64(id))
		for i := 8; i < len(b); i++ {
			b[i] = fill
		}
		return b
	}
	fills := []byte{fillOf(0), fillOf(1)}
	good := [][]byte{rec(7, 0), rec(7, fillOf(0)), rec(7, fillOf(1))}
	for _, r := range good {
		if err := checkRecord(r, 7, fills); err != nil {
			t.Errorf("valid record rejected: %v", err)
		}
	}
	torn := rec(7, fillOf(0))
	copy(torn[1000:], rec(7, fillOf(1))[1000:])
	for name, r := range map[string][]byte{
		"wrong id":     rec(8, 0),
		"short":        rec(7, 0)[:1999],
		"torn":         torn,
		"foreign fill": rec(7, 0x11),
	} {
		if err := checkRecord(r, 7, fills); !errors.Is(err, errWrong) {
			t.Errorf("%s: err = %v, want errWrong", name, err)
		}
	}
	if err := checkRecord(rec(7, fillOf(0)), 7, nil); err == nil {
		t.Error("an update fill on a read-only workload was accepted")
	}
}

func TestWrongAndFailedRepliesCount(t *testing.T) {
	var tl tally
	l := &lane{t: badTarget{}}
	l.do(context.Background(), opGet, 3, time.Now(), &tl)
	l.do(context.Background(), opScan, 0, time.Now(), &tl)
	l.do(context.Background(), opUpdate, 3, time.Now(), &tl)
	if tl.attempted != 3 || tl.wrong != 2 || tl.failed != 1 || tl.ok() != 0 {
		t.Fatalf("tally %+v, want 3 attempted: 2 wrong, 1 failed", tl)
	}
	for op := opGet; op < numOps; op++ {
		if tl.lat[op][0] != failed {
			t.Errorf("%s: latency %d, want the failure marker", opNames[op], tl.lat[op][0])
		}
	}
}

// badTarget answers GET with the wrong record, SCAN with the wrong count,
// and refuses UPDATE.
type badTarget struct{}

func (badTarget) Get(context.Context, int64) ([]byte, error) { return make([]byte, recordSize), nil }
func (badTarget) Update(context.Context, int64, byte) error  { return errors.New("refused") }
func (badTarget) Scan(context.Context) (int, error)          { return customers - 1, nil }
