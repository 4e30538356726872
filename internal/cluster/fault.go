package cluster

import (
	"bytes"
	"context"
	"net"
	"sync"
	"time"
)

// Deterministic transport fault injection, mirroring the store.Fault
// wrapper pattern: wrap the pool's DialFunc, count frames, and fail on
// a schedule. Because the transport writes each frame with exactly one
// Write call, counting Write calls counts frames.

// FaultConfig schedules transport faults. Zero value injects nothing.
type FaultConfig struct {
	// DropAfterWrites closes the connection immediately after the Nth
	// successful frame write (1-based). Zero disables.
	DropAfterWrites int
	// TearAtWrite truncates the Nth frame write halfway and then closes
	// the connection, producing a torn frame at the peer. Zero disables.
	TearAtWrite int
	// Method, when set, makes DropAfterWrites and TearAtWrite count only
	// request frames calling Method, across every connection the dialer
	// opens, and fault only the Nth such frame. A schedule then names one
	// call (say, the first shard dispatch) however many health pings or
	// other frames precede it, and a retry's fresh connection runs clean.
	Method string
	// WriteLatency delays every frame write.
	WriteLatency time.Duration
	// FailDials makes subsequent dials fail outright.
	FailDials bool
}

// FaultDialer wraps dial so every connection it opens injects the
// faults described by cfg. Counters are per-connection and the config
// can be swapped between dials; reads of cfg are synchronized.
type FaultDialer struct {
	inner DialFunc

	mu      sync.Mutex
	cfg     FaultConfig
	dials   int
	writes  int // total frame writes across connections, for assertions
	matched int // request frames calling cfg.Method, across connections
}

// NewFaultDialer wraps inner with fault injection.
func NewFaultDialer(inner DialFunc, cfg FaultConfig) *FaultDialer {
	return &FaultDialer{inner: inner, cfg: cfg}
}

// SetConfig swaps the fault schedule for connections dialed from now on
// and restarts the Method frame count.
func (f *FaultDialer) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.matched = 0
	f.mu.Unlock()
}

// Counters reports total dials and frame writes through this dialer.
func (f *FaultDialer) Counters() (dials, writes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials, f.writes
}

// Dial is the DialFunc to hand the pool.
func (f *FaultDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	f.mu.Lock()
	cfg := f.cfg
	f.dials++
	f.mu.Unlock()
	if cfg.FailDials {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: context.DeadlineExceeded}
	}
	nc, err := f.inner(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: nc, dialer: f, cfg: cfg}, nil
}

// faultConn injects the scheduled faults on one connection.
type faultConn struct {
	net.Conn
	dialer *FaultDialer
	cfg    FaultConfig

	mu     sync.Mutex
	writes int
	// dropped is set before the dropping frame is written: the peer may
	// answer that frame before Close lands, and Read must not deliver the
	// answer of a request whose connection the schedule dropped.
	dropped bool
}

// Read fails once the connection is dropped, whatever arrived meanwhile.
func (c *faultConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	dropped := c.dropped
	c.mu.Unlock()
	if dropped {
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.cfg.WriteLatency > 0 {
		time.Sleep(c.cfg.WriteLatency)
	}
	c.mu.Lock()
	c.writes++
	w := c.writes
	c.mu.Unlock()
	c.dialer.mu.Lock()
	c.dialer.writes++
	c.dialer.mu.Unlock()

	tear := c.cfg.TearAtWrite > 0 && w == c.cfg.TearAtWrite
	drop := c.cfg.DropAfterWrites > 0 && w >= c.cfg.DropAfterWrites
	if c.cfg.Method != "" {
		tear, drop = false, false
		if h, _, err := readFrame(bytes.NewReader(b)); err == nil && h.Type == frameRequest && h.Method == c.cfg.Method {
			c.dialer.mu.Lock()
			c.dialer.matched++
			m := c.dialer.matched
			c.dialer.mu.Unlock()
			tear = m == c.cfg.TearAtWrite
			drop = m == c.cfg.DropAfterWrites
		}
	}
	if tear {
		half := len(b) / 2
		n, _ := c.Conn.Write(b[:half])
		c.Conn.Close()
		return n, net.ErrClosed
	}
	if drop {
		c.mu.Lock()
		c.dropped = true
		c.mu.Unlock()
	}
	n, err := c.Conn.Write(b)
	if err == nil && drop {
		c.Conn.Close()
	}
	return n, err
}
