package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/policy"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage"
)

// layer names the boundary a span times. Spans are recorded from this
// package only, around calls into each layer's public functions.
type layer uint8

const (
	layerWire  layer = iota // a client call: wire, loopback and server, db below
	layerDB                 // a db call in the direct pass
	layerRead               // storage.Backend.Read under the db
	layerWrite              // storage.Backend.Write
	layerFlush              // storage.Backend.Flush
	numLayers
)

var layerNames = [numLayers]string{"wire", "db", "storage.read", "storage.write", "storage.flush"}

// span is one timed call. parent is the id of the span that caused it, 0
// when the call arrived without one (the server starts every request on a
// fresh context, so storage calls under a wire request have no parent).
type span struct {
	id, parent uint64
	start, end int64 // ns since the recorder's base
	layer      layer
	op         opKind
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory while it is on. Nothing is written out
// until the run ends.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func newRecorder(limit int) *recorder { return &recorder{base: time.Now(), limit: limit} }

type spanKey struct{}

// openSpan is a started span; the zero value (recorder off) records
// nothing.
type openSpan struct {
	r *recorder
	s span
}

// start opens a span of layer l, parented to the span ctx carries.
func (r *recorder) start(ctx context.Context, l layer, op opKind) openSpan {
	if r == nil || !r.on.Load() {
		return openSpan{}
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	return openSpan{r: r, s: span{id: r.ids.Add(1), parent: parent, start: int64(time.Since(r.base)), layer: l, op: op}}
}

// context returns ctx carrying the span, so calls below it become its
// children.
func (o openSpan) context(ctx context.Context) context.Context {
	if o.r == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, o.s.id)
}

func (o openSpan) finish() {
	if o.r == nil {
		return
	}
	o.s.end = int64(time.Since(o.r.base))
	o.r.mu.Lock()
	if len(o.r.spans) < o.r.limit {
		o.r.spans = append(o.r.spans, o.s)
	} else {
		o.r.dropped++
	}
	o.r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// selfTime is the part of parent's interval that none of children covers.
// Children are clipped to the parent and may overlap one another.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		if s, e := max(c.start, parent.start), min(c.end, parent.end); e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered := int64(0)
	for i := 0; i < len(iv); {
		s, e := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= e; i++ {
			e = max(e, iv[i][1])
		}
		covered += e - s
	}
	return parent.dur() - covered
}

// timedBackend is the storage.Backend the traced run hands db.Open: it
// times Read, Write and Flush and forwards everything else.
type timedBackend struct {
	storage.Backend
	rec *recorder
}

func (b *timedBackend) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	sp := b.rec.start(ctx, layerRead, 0)
	err := b.Backend.Read(ctx, p, buf)
	sp.finish()
	return err
}

func (b *timedBackend) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	sp := b.rec.start(ctx, layerWrite, 0)
	err := b.Backend.Write(ctx, p, buf)
	sp.finish()
	return err
}

func (b *timedBackend) Flush(ctx context.Context) error {
	sp := b.rec.start(ctx, layerFlush, 0)
	err := b.Backend.Flush(ctx)
	sp.finish()
	return err
}

// durableTimed forwards Recovery as well, so the db sees a durable backend
// and keeps its catalog, checkpoints and acknowledged-update logging.
type durableTimed struct {
	*timedBackend
	durable storage.DurableBackend
}

func (b durableTimed) Recovery() storage.RecoveryInfo { return b.durable.Recovery() }

// wrapBackend times base, keeping it durable if it is.
func wrapBackend(base storage.Backend, rec *recorder) storage.Backend {
	t := &timedBackend{Backend: base, rec: rec}
	if d, ok := base.(storage.DurableBackend); ok {
		return durableTimed{timedBackend: t, durable: d}
	}
	return t
}

// dbTarget sends a lane's requests straight into the db layer, each inside
// a db span whose context parents the storage calls below it.
type dbTarget struct {
	db  *db.DB
	rec *recorder
}

func (t dbTarget) Get(ctx context.Context, key int64) ([]byte, error) {
	sp := t.rec.start(ctx, layerDB, opGet)
	rec, err := t.db.LookupCtx(sp.context(ctx), key)
	sp.finish()
	return rec, err
}

func (t dbTarget) Update(ctx context.Context, key int64, fill byte) error {
	sp := t.rec.start(ctx, layerDB, opUpdate)
	err := t.db.UpdateCustomerCtx(sp.context(ctx), key, fill)
	sp.finish()
	return err
}

func (t dbTarget) Scan(ctx context.Context) (int, error) {
	sp := t.rec.start(ctx, layerDB, opScan)
	n, err := t.db.ScanCustomersCtx(sp.context(ctx))
	sp.finish()
	return n, err
}

// capturePairs is how many request/response pairs per op a wire target
// keeps for the codec replay.
const capturePairs = 256

// framePair is one captured exchange, as the payloads on the wire.
type framePair struct{ req, resp []byte }

// wireTarget sends a lane's requests over the wire inside a wire span and
// keeps the first frames of each op for the codec replay.
type wireTarget struct {
	c      *client.Client
	rec    *recorder
	frames [numOps][]framePair
}

func (t *wireTarget) capture(op opKind, req wire.Request, resp wire.Response) {
	if t.rec != nil && t.rec.on.Load() && len(t.frames[op]) < capturePairs {
		t.frames[op] = append(t.frames[op], framePair{wire.EncodeRequest(req), wire.EncodeResponse(resp)})
	}
}

func (t *wireTarget) Get(ctx context.Context, key int64) ([]byte, error) {
	sp := t.rec.start(ctx, layerWire, opGet)
	rec, err := t.c.Get(ctx, key)
	sp.finish()
	if err == nil {
		t.capture(opGet, wire.Request{Op: wire.OpGet, CustID: key, Timeout: reqTimeout}, wire.Response{Status: wire.StatusOK, Body: rec})
	}
	return rec, err
}

func (t *wireTarget) Update(ctx context.Context, key int64, fill byte) error {
	sp := t.rec.start(ctx, layerWire, opUpdate)
	err := t.c.Update(ctx, key, fill)
	sp.finish()
	if err == nil {
		t.capture(opUpdate, wire.Request{Op: wire.OpUpdate, CustID: key, Fill: fill, Timeout: reqTimeout}, wire.Response{Status: wire.StatusOK})
	}
	return err
}

func (t *wireTarget) Scan(ctx context.Context) (int, error) {
	sp := t.rec.start(ctx, layerWire, opScan)
	n, err := t.c.Scan(ctx)
	sp.finish()
	return n, err
}

// codecNsPerPair replays captured exchanges through the wire codec as a
// connection would see them — encode and frame the request, read and
// decode it, then the same for the response — and returns the mean time
// per exchange in ns, or 0 with nothing captured.
func codecNsPerPair(pairs []framePair) (float64, error) {
	if len(pairs) == 0 {
		return 0, nil
	}
	reqs := make([]wire.Request, len(pairs))
	resps := make([]wire.Response, len(pairs))
	for i, p := range pairs {
		var err error
		if reqs[i], err = wire.DecodeRequest(p.req); err != nil {
			return 0, fmt.Errorf("captured request: %w", err)
		}
		if resps[i], err = wire.DecodeResponse(p.resp); err != nil {
			return 0, fmt.Errorf("captured response: %w", err)
		}
	}
	var pipe pipeBuffer
	var buf []byte
	const minIters, minTime = 20000, 200 * time.Millisecond
	start := time.Now()
	n := 0
	for ; n < minIters || time.Since(start) < minTime; n++ {
		i := n % len(pairs)
		buf = wire.AppendRequest(buf[:0], reqs[i])
		if err := wire.WriteFrame(&pipe, buf); err != nil {
			return 0, err
		}
		payload, err := wire.ReadFrame(&pipe, wire.MaxFrameDefault)
		if err != nil {
			return 0, err
		}
		if _, err := wire.DecodeRequest(payload); err != nil {
			return 0, err
		}
		buf = wire.AppendResponse(buf[:0], resps[i])
		if err := wire.WriteFrame(&pipe, buf); err != nil {
			return 0, err
		}
		if payload, err = wire.ReadFrame(&pipe, wire.MaxFrameDefault); err != nil {
			return 0, err
		}
		if _, err := wire.DecodeResponse(payload); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// pipeBuffer is an in-memory byte pipe that reuses its storage once
// drained, standing in for the socket in the codec replay.
type pipeBuffer struct {
	b   []byte
	off int
}

func (p *pipeBuffer) Write(b []byte) (int, error) {
	if p.off == len(p.b) {
		p.b, p.off = p.b[:0], 0
	}
	p.b = append(p.b, b...)
	return len(b), nil
}

func (p *pipeBuffer) Read(b []byte) (int, error) {
	n := copy(b, p.b[p.off:])
	p.off += n
	return n, nil
}

// writeSpans writes every span of both phases to path as CSV.
func writeSpans(path string, phases map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	_, _ = w.WriteString("phase,id,parent,layer,op,start_ns,end_ns\n")
	var line []byte
	for _, name := range []string{"wire", "direct"} {
		for _, s := range phases[name] {
			line = append(line[:0], name...)
			line = append(line, ',')
			line = strconv.AppendUint(line, s.id, 10)
			line = append(line, ',')
			line = strconv.AppendUint(line, s.parent, 10)
			line = append(line, ',')
			line = append(line, layerNames[s.layer]...)
			line = append(line, ',')
			line = append(line, opNames[s.op]...)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, '\n')
			_, _ = w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
