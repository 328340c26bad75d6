package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage/sim"
)

// diskGate is a DiskModel.Delay hook that, once armed, parks every disk
// I/O until the gate opens, counting the callers parked; after opening,
// each I/O sleeps for pace instead.
type diskGate struct {
	armed  atomic.Bool
	parked atomic.Int64
	open   chan struct{}
	pace   time.Duration
}

func newDiskGate(pace time.Duration) *diskGate {
	return &diskGate{open: make(chan struct{}), pace: pace}
}

func (g *diskGate) delay(int64) {
	if !g.armed.Load() {
		return
	}
	g.parked.Add(1)
	<-g.open
	g.parked.Add(-1)
	time.Sleep(g.pace)
}

// release opens the gate; safe to call more than once.
func (g *diskGate) release() {
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

// gatedCustomers is the table size behind the gated servers: 256 heap
// pages against 32 frames, so early records are long evicted.
const gatedCustomers = 512

// startGated serves a database whose index is resident and whose early
// heap pages are cold and clean, then arms the gate: a GET of coldKey(i)
// then does exactly one disk read, on a heap page no other coldKey shares,
// so every executing GET parks in the gate on its own.
func startGated(t *testing.T, g *diskGate, cfg Config) *Server {
	t.Helper()
	srv, database := startServer(t, db.Config{Frames: 32, DiskModel: sim.ServiceModel{Delay: g.delay}},
		cfg, gatedCustomers)
	if err := database.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Touch every index leaf twice through keys clear of the cold ones, so
	// LRU-2 ranks the index above the once-referenced heap pages.
	for pass := 0; pass < 2; pass++ {
		for id := int64(64); id < gatedCustomers; id += 32 {
			if _, err := database.Lookup(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if idx, _ := database.ResidentByClass(); idx != database.IndexPages() {
		t.Fatalf("index not resident before gating: %d of %d pages", idx, database.IndexPages())
	}
	g.armed.Store(true)
	t.Cleanup(g.release)
	return srv
}

// coldKey is the i-th cold key (i < 8): records are packed two to a heap
// page, so keys eight apart never share one, and none shares a page with
// the warm-up keys.
func coldKey(i int) int64 { return int64(i * 8) }

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// asyncGet issues a GET on its own connection and delivers its outcome.
func asyncGet(t *testing.T, srv *Server, key int64) <-chan error {
	t.Helper()
	cl := dial(t, srv)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cl.Get(ctx, key)
		done <- err
	}()
	return done
}

// TestAdmissionGateBounds fills the gate with disk-parked requests: exactly
// Workers execute, exactly QueueDepth more wait (and the queue-depth gauge
// says so), and the next request is shed BUSY at once. Opening the disk
// then completes every admitted request.
func TestAdmissionGateBounds(t *testing.T) {
	leakcheck.Check(t)
	const workers, depth = 2, 3
	reg := obs.NewRegistry()
	g := newDiskGate(0)
	srv := startGated(t, g, Config{Workers: workers, QueueDepth: depth, Obs: reg})

	var admitted []<-chan error
	for i := 0; i < workers; i++ {
		admitted = append(admitted, asyncGet(t, srv, coldKey(i)))
	}
	waitFor(t, "workers to park on the disk", func() bool { return g.parked.Load() == workers })
	for i := workers; i < workers+depth; i++ {
		admitted = append(admitted, asyncGet(t, srv, coldKey(i)))
	}
	waitFor(t, "the queue to fill", func() bool { return srv.waiting() == depth })
	// Give a gate that admits too much the chance to show it.
	time.Sleep(20 * time.Millisecond)
	if n := g.parked.Load(); n != workers {
		t.Fatalf("%d requests executing, want exactly %d", n, workers)
	}
	if n := srv.waiting(); n != depth {
		t.Fatalf("%d requests waiting, want exactly %d", n, depth)
	}
	hs := httptest.NewServer(obs.Handler(reg))
	defer hs.Close()
	if v := scrapeMetrics(t, hs)["lruk_server_queue_depth"]; v != depth {
		t.Errorf("lruk_server_queue_depth = %v, want %d", v, depth)
	}

	cl := dial(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	began := time.Now()
	if _, err := cl.Get(ctx, coldKey(workers+depth)); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("request beyond Workers+QueueDepth: err = %v, want ErrBusy", err)
	}
	if d := time.Since(began); d > time.Second {
		t.Errorf("BUSY took %v, want prompt", d)
	}

	g.release()
	for i, done := range admitted {
		if err := <-done; err != nil {
			t.Errorf("admitted request %d: %v", i, err)
		}
	}
	if v := scrapeMetrics(t, hs)["lruk_server_queue_depth"]; v != 0 {
		t.Errorf("lruk_server_queue_depth = %v after the burst, want 0", v)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

// TestAdmissionGateFIFO holds one worker on the disk while requests queue
// up one by one: once the disk opens they must complete in arrival order.
func TestAdmissionGateFIFO(t *testing.T) {
	leakcheck.Check(t)
	const waiters = 4
	g := newDiskGate(15 * time.Millisecond)
	srv := startGated(t, g, Config{Workers: 1, QueueDepth: waiters})

	finished := make(chan int, waiters+1)
	track := func(i int, done <-chan error) {
		go func() {
			if err := <-done; err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			finished <- i
		}()
	}
	track(0, asyncGet(t, srv, coldKey(0)))
	waitFor(t, "the first request to park on the disk", func() bool { return g.parked.Load() == 1 })
	for i := 1; i <= waiters; i++ {
		track(i, asyncGet(t, srv, coldKey(i)))
		waitFor(t, fmt.Sprintf("request %d to queue", i), func() bool { return srv.waiting() == i })
	}
	g.release()
	for want := 0; want <= waiters; want++ {
		if got := <-finished; got != want {
			t.Fatalf("completion %d was request %d: waiting requests must run in arrival order", want, got)
		}
	}
}

// TestAdmissionGateDrainRunsWaiters starts Close while one request executes
// and another waits for a run token: both must be executed and answered.
func TestAdmissionGateDrainRunsWaiters(t *testing.T) {
	leakcheck.Check(t)
	g := newDiskGate(0)
	srv := startGated(t, g, Config{Workers: 1, QueueDepth: 2})

	running := asyncGet(t, srv, coldKey(0))
	waitFor(t, "the first request to park on the disk", func() bool { return g.parked.Load() == 1 })
	waiting := asyncGet(t, srv, coldKey(1))
	waitFor(t, "the second request to queue", func() bool { return srv.waiting() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	waitFor(t, "Close to begin", srv.closed.Load)
	time.Sleep(10 * time.Millisecond)
	g.release()

	if err := <-running; err != nil {
		t.Errorf("executing request during drain: %v", err)
	}
	if err := <-waiting; err != nil {
		t.Errorf("waiting request during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestCloseNotHeldByIdleConns is a smoke check: it closes servers while
// their connections go idle between requests, and Close must return well
// inside DrainTimeout, not wait out any handler's idle deadline. The race
// window it samples is a few instructions wide, so it rarely catches the
// bad interleaving; TestDrainNudgeBeatsIdleRearm forces it every time.
func TestCloseNotHeldByIdleConns(t *testing.T) {
	leakcheck.Check(t)
	const (
		rounds = 3
		conns  = 16
		drain  = 2 * time.Second
	)
	database, err := db.Open(db.Config{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(64); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		srv := New(database, Config{Addr: "127.0.0.1:0", QueueDepth: conns, DrainTimeout: drain})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < conns; i++ {
			cl, err := client.Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Get(context.Background(), int64(i)); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Keep the handler cycling through its loop until drain
				// begins, then stay idle with the connection open until
				// Close has returned.
				for {
					select {
					case <-srv.done:
					default:
						if _, err := cl.Get(context.Background(), int64(i)); err == nil {
							continue
						}
					}
					break
				}
				<-closed
				cl.Close()
			}(i)
		}
		time.Sleep(2 * time.Millisecond)
		began := time.Now()
		err := srv.Close()
		took := time.Since(began)
		close(closed)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		if took > drain/4 {
			t.Fatalf("round %d: Close took %v with idle connections, want well under DrainTimeout %v", round, took, drain)
		}
	}
}

// rearmHookConn runs hook inside the first idle-deadline re-arm after the
// connection's first request, before the deadline is applied, and closes
// nudged when a deadline no further than now is set (Close's drain nudge).
type rearmHookConn struct {
	net.Conn
	idleArms atomic.Int32
	hook     func()
	nudged   chan struct{}
}

func (c *rearmHookConn) SetReadDeadline(t time.Time) error {
	if time.Until(t) > time.Second {
		if c.idleArms.Add(1) == 2 {
			c.hook()
		}
	} else {
		defer close(c.nudged)
	}
	return c.Conn.SetReadDeadline(t)
}

// TestDrainNudgeBeatsIdleRearm forces the interleaving behind a drain
// race: Close runs to its deadline nudge while a handler is between
// finishing a request and re-arming its idle deadline, so the re-arm lands
// on top of the nudge. The handler must still notice the drain and exit,
// rather than wait out its idle deadline and hold Close for DrainTimeout.
func TestDrainNudgeBeatsIdleRearm(t *testing.T) {
	leakcheck.Check(t)
	const drain = time.Second
	database, err := db.Open(db.Config{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(16); err != nil {
		t.Fatal(err)
	}
	srv := New(database, Config{Addr: "127.0.0.1:0", DrainTimeout: drain})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	closeTook := make(chan time.Duration, 1)
	conn := &rearmHookConn{Conn: serverEnd, nudged: make(chan struct{})}
	conn.hook = func() {
		go func() {
			began := time.Now()
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			closeTook <- time.Since(began)
		}()
		// Let Close nudge this connection, then let the re-arm overwrite
		// the nudge.
		<-conn.nudged
	}
	// Hand the connection to the server exactly as the accept loop would.
	srv.mu.Lock()
	srv.conns[conn] = struct{}{}
	srv.connWG.Add(1)
	srv.mu.Unlock()
	go srv.handleConn(conn)

	if err := wire.WriteFrame(clientEnd, wire.EncodeRequest(wire.Request{Op: wire.OpGet, CustID: 3})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(clientEnd, wire.MaxFrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := wire.DecodeResponse(payload); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("get: status %v, err %v", resp.Status, err)
	}
	// The connection now sits idle; the handler's re-arm has started Close.
	if took := <-closeTook; took > drain/4 {
		t.Fatalf("Close took %v behind an idle connection, want well under DrainTimeout %v", took, drain)
	}
}
