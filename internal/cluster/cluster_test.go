package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	body := []byte(`{"x":1}`)
	buf, err := encodeFrame(frameHeader{Type: frameRequest, ID: 42, Method: "m"}, body)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	h, got, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if h.Type != frameRequest || h.ID != 42 || h.Method != "m" {
		t.Fatalf("header round trip: %+v", h)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body round trip: %q", got)
	}
}

func TestFrameTornAndCorrupt(t *testing.T) {
	buf, err := encodeFrame(frameHeader{Type: frameResponse, ID: 1}, []byte("payload"))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Torn: length prefix promises more bytes than arrive.
	if _, _, err := readFrame(bytes.NewReader(buf[:len(buf)-3])); err == nil {
		t.Fatal("torn frame read succeeded")
	}
	// Corrupt: flip a payload bit; the envelope CRC must catch it.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := readFrame(bytes.NewReader(bad)); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("corrupt frame: got %v, want ErrCorrupt", err)
	}
}

// pipeConns returns two connected transport Conns, the second serving svc.
func pipeConns(t *testing.T, svc Service) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca := NewConn(context.Background(), a, nil)
	cb := NewConn(context.Background(), b, svc)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestCallResponseAndEvents(t *testing.T) {
	svc := Service{
		"echo": func(ctx context.Context, req *Request) ([]byte, error) {
			for i := 0; i < 3; i++ {
				if err := req.Emit([]byte{byte('0' + i)}); err != nil {
					return nil, err
				}
			}
			return req.Body, nil
		},
		"boom": func(ctx context.Context, req *Request) ([]byte, error) {
			return nil, errors.New("kaput")
		},
	}
	caller, _ := pipeConns(t, svc)

	var events []string
	res, err := caller.Call(context.Background(), "echo", []byte("hi"), func(b []byte) {
		events = append(events, string(b))
	})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(res) != "hi" {
		t.Fatalf("response %q", res)
	}
	if len(events) != 3 || events[0] != "0" || events[2] != "2" {
		t.Fatalf("events %v", events)
	}

	_, err = caller.Call(context.Background(), "boom", nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "kaput" {
		t.Fatalf("remote error: %v", err)
	}

	_, err = caller.Call(context.Background(), "nope", nil, nil)
	if !errors.As(err, &remote) {
		t.Fatalf("unknown method: %v", err)
	}
}

func TestCallCancelPropagates(t *testing.T) {
	started := make(chan struct{})
	stopped := make(chan struct{})
	svc := Service{
		"wait": func(ctx context.Context, req *Request) ([]byte, error) {
			close(started)
			<-ctx.Done()
			close(stopped)
			return nil, ctx.Err()
		},
	}
	caller, _ := pipeConns(t, svc)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := caller.Call(ctx, "wait", nil, nil)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error: %v", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel frame never reached the handler")
	}
}

func TestConnDeathFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	svc := Service{
		"hang": func(ctx context.Context, req *Request) ([]byte, error) {
			<-block
			return nil, nil
		},
	}
	caller, callee := pipeConns(t, svc)
	errc := make(chan error, 1)
	go func() {
		_, err := caller.Call(context.Background(), "hang", nil, nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	callee.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("pending call error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call never failed after conn death")
	}
	close(block)
}

// callerPeer exercises the symmetric direction: the callee's handler
// calls back to a service on the caller's side of the same connection.
func TestSymmetricCallback(t *testing.T) {
	a, b := net.Pipe()
	callerSvc := Service{
		"lookup": func(ctx context.Context, req *Request) ([]byte, error) {
			return append([]byte("found:"), req.Body...), nil
		},
	}
	workerSvc := Service{
		"work": func(ctx context.Context, req *Request) ([]byte, error) {
			return req.Conn.Call(ctx, "lookup", req.Body, nil)
		},
	}
	caller := NewConn(context.Background(), a, callerSvc)
	worker := NewConn(context.Background(), b, workerSvc)
	defer caller.Close()
	defer worker.Close()

	res, err := caller.Call(context.Background(), "work", []byte("k1"), nil)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(res) != "found:k1" {
		t.Fatalf("callback result %q", res)
	}
}

// startWorker serves svc on a real TCP listener and returns its address
// plus a stop function.
func startWorker(t *testing.T, svc Service) (string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, svc)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return ln.Addr().String(), cancel
}

func pingSvc() Service {
	return Service{
		PingMethod: func(ctx context.Context, req *Request) ([]byte, error) {
			return json.Marshal(map[string]int{"ok": 1})
		},
	}
}

func waitHealthy(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.Healthy()) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("pool never reached %d healthy nodes (have %d)", want, len(p.Healthy()))
}

func TestPoolHealthAndFailover(t *testing.T) {
	addrA, stopA := startWorker(t, pingSvc())
	addrB, _ := startWorker(t, pingSvc())

	p := NewPool(PoolConfig{
		Addrs:        []string{addrA, addrB},
		PingInterval: 20 * time.Millisecond,
		PingTimeout:  time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	defer p.Close()

	waitHealthy(t, p, 2)

	// Placement is deterministic and lands on a healthy node.
	n1 := p.Pick([]byte("some-graph-fingerprint"))
	n2 := p.Pick([]byte("some-graph-fingerprint"))
	if n1 == nil || n1 != n2 {
		t.Fatalf("placement unstable: %v vs %v", n1, n2)
	}

	// Kill one worker; the pool demotes it and placement moves over.
	stopA()
	waitHealthy(t, p, 1)
	if got := p.Pick([]byte("some-graph-fingerprint")); got == nil || got.Addr() != addrB {
		t.Fatalf("placement after death: %v", got)
	}
	if p.NodeByAddr(addrA).Healthy() {
		t.Fatal("dead node still healthy")
	}
}

func TestPoolDoCountsAndDemotes(t *testing.T) {
	var served atomic.Int64
	svc := pingSvc()
	svc["job"] = func(ctx context.Context, req *Request) ([]byte, error) {
		served.Add(1)
		return []byte("done"), nil
	}
	addr, stop := startWorker(t, svc)

	p := NewPool(PoolConfig{
		Addrs:        []string{addr},
		PingInterval: 20 * time.Millisecond,
		PingTimeout:  time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	defer p.Close()
	waitHealthy(t, p, 1)

	n := p.Nodes()[0]
	res, err := p.Do(context.Background(), n, "job", nil, nil)
	if err != nil || string(res) != "done" {
		t.Fatalf("do: %v %q", err, res)
	}
	if n.Dispatches.Load() == 0 || served.Load() != 1 {
		t.Fatalf("dispatch accounting: %d sent, %d served", n.Dispatches.Load(), served.Load())
	}

	stop()
	waitHealthy(t, p, 0)
	if _, err := p.Do(context.Background(), n, "job", nil, nil); err == nil {
		t.Fatal("dispatch to dead node succeeded")
	}
	if n.Errors.Load() == 0 {
		t.Fatal("transport error not counted")
	}
}

func TestFaultDialerDropAndTear(t *testing.T) {
	svc := pingSvc()
	svc["job"] = func(ctx context.Context, req *Request) ([]byte, error) {
		return []byte("ok"), nil
	}
	addr, _ := startWorker(t, svc)
	base := func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", a)
	}

	// Torn frame: the peer sees a CRC/short-read failure and the caller's
	// connection dies deterministically on the first request frame.
	fd := NewFaultDialer(base, FaultConfig{TearAtWrite: 1})
	nc, err := fd.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewConn(context.Background(), nc, nil)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "job", []byte("x"), nil); err == nil {
		t.Fatal("call over torn connection succeeded")
	}

	// Dropped connection after the first successful frame: the call's
	// response never arrives and the pending call fails with conn death.
	fd.SetConfig(FaultConfig{DropAfterWrites: 1})
	nc2, err := fd.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c2 := NewConn(context.Background(), nc2, nil)
	defer c2.Close()
	if _, err := c2.Call(ctx, "job", []byte("x"), nil); err == nil {
		t.Fatal("call over dropped connection succeeded")
	}

	// Latency injection slows but does not break the call.
	fd.SetConfig(FaultConfig{WriteLatency: 5 * time.Millisecond})
	nc3, err := fd.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c3 := NewConn(context.Background(), nc3, nil)
	defer c3.Close()
	start := time.Now()
	if _, err := c3.Call(ctx, "job", []byte("x"), nil); err != nil {
		t.Fatalf("latent call: %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("latency not injected")
	}
	if dials, writes := fd.Counters(); dials != 3 || writes == 0 {
		t.Fatalf("fault counters: %d dials %d writes", dials, writes)
	}
}

// TestFaultDialerMethodSchedule: with Method set, only request frames
// calling that method count, across connections, so the fault lands on
// the first "job" call however many pings precede it, and the next
// connection's call runs clean.
func TestFaultDialerMethodSchedule(t *testing.T) {
	svc := pingSvc()
	svc["job"] = func(ctx context.Context, req *Request) ([]byte, error) {
		return []byte("ok"), nil
	}
	addr, _ := startWorker(t, svc)
	base := func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", a)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, cfg := range []FaultConfig{
		{TearAtWrite: 1, Method: "job"},
		{DropAfterWrites: 1, Method: "job"},
	} {
		fd := NewFaultDialer(base, cfg)
		nc, err := fd.Dial(ctx, addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c := NewConn(context.Background(), nc, nil)
		for i := 0; i < 3; i++ {
			if _, err := c.Call(ctx, PingMethod, nil, nil); err != nil {
				t.Fatalf("%+v: ping %d faulted: %v", cfg, i, err)
			}
		}
		if _, err := c.Call(ctx, "job", []byte("x"), nil); err == nil {
			t.Fatalf("%+v: first job call survived its fault", cfg)
		}
		c.Close()
		nc2, err := fd.Dial(ctx, addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c2 := NewConn(context.Background(), nc2, nil)
		if _, err := c2.Call(ctx, "job", []byte("x"), nil); err != nil {
			t.Fatalf("%+v: second job call faulted: %v", cfg, err)
		}
		if _, err := c2.Call(ctx, "job", []byte("x"), nil); err != nil {
			t.Fatalf("%+v: third job call faulted: %v", cfg, err)
		}
		c2.Close()
	}
}

func TestPickSkipsUnhealthyDeterministically(t *testing.T) {
	p := NewPool(PoolConfig{Addrs: []string{"a:1", "b:1", "c:1"}})
	for _, n := range p.nodes {
		n.mu.Lock()
		n.healthy = true
		n.mu.Unlock()
	}
	key := []byte("session-key")
	first := p.Pick(key)
	if first == nil {
		t.Fatal("no pick with all healthy")
	}
	// Record where a spread of keys lands, then demote the first node.
	before := make(map[int]*Node)
	for i := 0; i < 64; i++ {
		before[i] = p.Pick([]byte{byte(i), 'k'})
	}
	first.mu.Lock()
	first.healthy = false
	first.mu.Unlock()

	second := p.Pick(key)
	if second == nil || second == first {
		t.Fatalf("pick after demotion: %v", second)
	}
	if p.Pick(key) != second {
		t.Fatal("fallback placement unstable")
	}
	// Consistent hashing: only keys that lived on the demoted node move.
	for i := 0; i < 64; i++ {
		after := p.Pick([]byte{byte(i), 'k'})
		if before[i] != first && after != before[i] {
			t.Fatalf("key %d moved from a healthy node", i)
		}
		if before[i] == first && after == first {
			t.Fatalf("key %d stayed on the demoted node", i)
		}
	}
}
