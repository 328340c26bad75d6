package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

func TestSelfTimeWithPartlyCoveringChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []span{{start: 120, end: 130}}, 90},
		{"starts before the parent", []span{{start: 90, end: 120}}, 80},
		{"ends after the parent", []span{{start: 180, end: 260}}, 80},
		{"overlapping children count once", []span{{start: 110, end: 150}, {start: 130, end: 160}}, 50},
		{"outside the parent", []span{{start: 10, end: 90}, {start: 200, end: 300}}, 100},
		{"mixed", []span{
			{start: 90, end: 120},  // covers 100..120
			{start: 110, end: 150}, // extends to 150
			{start: 180, end: 260}, // covers 180..200
			{start: 300, end: 400}, // outside
		}, 30},
		{"covering the whole parent", []span{{start: 50, end: 250}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStorageSpansNestUnderDBSpan(t *testing.T) {
	rec := newRecorder(16)
	b := wrapBackend(sim.New(sim.ServiceModel{}), rec)
	p := storage.MustAllocate(b)
	buf := make([]byte, storage.PageSize)

	if err := b.Read(context.Background(), p, buf); err != nil {
		t.Fatal(err)
	}
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("recorder off: recorded %d spans", len(got))
	}

	rec.on.Store(true)
	sp := rec.start(context.Background(), layerDB, opGet)
	ctx := sp.context(context.Background())
	if err := b.Write(ctx, p, buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Read(ctx, p, buf); err != nil {
		t.Fatal(err)
	}
	sp.finish()
	if err := b.Read(context.Background(), p, buf); err != nil {
		t.Fatal(err)
	}
	spans := rec.take()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	dbSpan := spans[2]
	if dbSpan.layer != layerDB || dbSpan.parent != 0 {
		t.Fatalf("third span %+v, want the parentless db span", dbSpan)
	}
	for i, want := range []layer{layerWrite, layerRead} {
		if s := spans[i]; s.layer != want || s.parent != dbSpan.id {
			t.Errorf("span %d = %+v, want %s under db span %d", i, s, layerNames[want], dbSpan.id)
		}
	}
	if orphan := spans[3]; orphan.parent != 0 {
		t.Errorf("read outside any db call has parent %d", orphan.parent)
	}
	if self := directTimes(spans).self[opGet]; self < 0 || self > dbSpan.dur() {
		t.Errorf("db self time %d outside [0, %d]", self, dbSpan.dur())
	}
}

func TestWrappedBackendKeepsDurability(t *testing.T) {
	rec := newRecorder(1)
	if _, ok := wrapBackend(sim.New(sim.ServiceModel{}), rec).(storage.DurableBackend); ok {
		t.Error("wrapped simulator claims to be durable")
	}
	store, err := file.OpenConfig(t.TempDir(), file.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := wrapBackend(store, rec)
	defer b.Close()
	d, ok := b.(storage.DurableBackend)
	if !ok {
		t.Fatal("wrapped file store is not durable: the db would skip its catalog and WAL acknowledgement")
	}
	if d.Recovery() != store.Recovery() {
		t.Error("Recovery not forwarded")
	}
}

func TestRecorderDropsBeyondLimit(t *testing.T) {
	rec := newRecorder(2)
	rec.on.Store(true)
	for i := 0; i < 5; i++ {
		rec.start(context.Background(), layerDB, opGet).finish()
	}
	if got := len(rec.take()); got != 2 || rec.dropped != 3 {
		t.Fatalf("kept %d, dropped %d; want 2 and 3", got, rec.dropped)
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := newRecorder(1 << 12)
	rec.on.Store(true)
	b := wrapBackend(sim.New(sim.ServiceModel{}), rec)
	p := storage.MustAllocate(b)
	const workers, calls = 4, 100
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			buf := make([]byte, storage.PageSize)
			for i := 0; i < calls; i++ {
				sp := rec.start(context.Background(), layerDB, opGet)
				if err := b.Read(sp.context(context.Background()), p, buf); err != nil {
					t.Error(err)
				}
				sp.finish()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	spans := rec.take()
	if len(spans) != 2*workers*calls {
		t.Fatalf("recorded %d spans, want %d", len(spans), 2*workers*calls)
	}
	if dt := directTimes(spans); dt.calls[opGet] != workers*calls {
		t.Fatalf("%d db spans, want %d", dt.calls[opGet], workers*calls)
	}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if ids[s.id] {
			t.Fatalf("span id %d issued twice", s.id)
		}
		ids[s.id] = true
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the page service twice per workload")
	}
	for _, name := range []string{"zipf-get", "scan-mix"} {
		w, _ := findWorkload(name)
		var out strings.Builder
		res, err := runTraced(context.Background(), w, 1, 600*time.Millisecond, t.TempDir(), &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(layerMetricUnits) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(layerMetricUnits))
		}
		for _, m := range layerMetricUnits {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", name, m.name, got, m.unit)
			}
		}
		if hr := res.Metrics["bufferpool.hit_ratio"].Value; hr <= 0 || hr >= 1 {
			t.Errorf("%s: hit ratio %v outside (0, 1)", name, hr)
		}
		if !strings.Contains(out.String(), "self us/op") {
			t.Errorf("%s: no self-time table in\n%s", name, out.String())
		}
	}
}
