package tcp

// Unit tests for the socket-buffer appender: on-demand sizing, the
// allocation-free steady state at the cap, growth after the cap is
// raised, byte integrity across growth and compaction, and the release
// of both arrays when a connection finishes.

import (
	"bytes"
	"math/rand"
	"testing"

	"bsd6/internal/inet"
)

func TestSbappendFirstUseIsSmall(t *testing.T) {
	var arr []byte
	buf := sbappend(&arr, nil, make([]byte, 64), 32768)
	if len(buf) != 64 {
		t.Fatalf("len = %d, want 64", len(buf))
	}
	if cap(arr) >= 4096 {
		t.Fatalf("first 64 B append allocated a %d-byte array", cap(arr))
	}
}

// cycle streams chunk-sized appends through a buffer held at max live
// bytes, trimming the front like an ACK or a read does.
func cycle(arr *[]byte, buf []byte, chunk []byte, max, rounds int) []byte {
	for i := 0; i < rounds; i++ {
		if len(buf)+len(chunk) > max {
			buf = buf[len(chunk):]
		}
		buf = sbappend(arr, buf, chunk, max)
	}
	return buf
}

func TestSbappendSteadyStateAtCapAllocatesNothing(t *testing.T) {
	const max = 32768
	var arr []byte
	chunk := make([]byte, 1460)
	buf := cycle(&arr, nil, chunk, max, 200)
	if cap(arr) != 2*max {
		t.Fatalf("array capacity %d after cycling at the cap, want %d", cap(arr), 2*max)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = cycle(&arr, buf, chunk, max, 50)
	})
	if allocs != 0 {
		t.Fatalf("steady state at the cap allocated %.1f times per run", allocs)
	}
}

func TestSbappendGrowsWhenCapRaised(t *testing.T) {
	var arr []byte
	chunk := make([]byte, 1024)
	buf := cycle(&arr, nil, chunk, 4096, 50)
	if cap(arr) != 2*4096 {
		t.Fatalf("capacity %d at max 4096, want %d", cap(arr), 2*4096)
	}
	// The app raises SO_SNDBUF/SO_RCVBUF mid-stream: the live backlog
	// may now reach the new cap, and the array follows it.
	const raised = 65536
	buf = cycle(&arr, buf, chunk, raised, 500)
	if len(buf) <= 4096 {
		t.Fatalf("backlog stuck at %d bytes after raising the cap", len(buf))
	}
	if cap(arr) != 2*raised {
		t.Fatalf("capacity %d after raising the cap, want %d", cap(arr), 2*raised)
	}
}

func TestSbappendPreservesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var arr []byte
	var buf []byte
	var model []byte
	next := byte(0)
	max := 8192
	for step := 0; step < 20000; step++ {
		if step == 10000 {
			max = 3 * 8192 // raise the cap mid-stream
		}
		if n := rng.Intn(2000) + 1; len(buf)+n <= max {
			data := make([]byte, n)
			for i := range data {
				data[i] = next
				next++
			}
			buf = sbappend(&arr, buf, data, max)
			model = append(model, data...)
		}
		if k := rng.Intn(len(buf) + 1); rng.Intn(2) == 0 {
			buf, model = buf[k:], model[k:]
		}
		if !bytes.Equal(buf, model) {
			t.Fatalf("step %d: buffer diverged from the byte stream (len %d vs %d)", step, len(buf), len(model))
		}
	}
}

// fillBufs gives the connection 64 bytes queued in each direction.
func fillBufs(c *Conn) {
	c.sndBuf = sbappend(&c.sndArr, nil, make([]byte, 64), c.SndBufMax)
	c.rcvBuf = sbappend(&c.rcvArr, nil, make([]byte, 64), c.RcvBufMax)
}

func TestFinishedConnReleasesBuffers(t *testing.T) {
	tc := New(nil, nil)

	// The peer's FIN in FIN_WAIT_2 compresses the connection into a
	// 2MSL record: the send array goes at once, the receive array
	// stays while it holds unread bytes.
	c := tc.Attach(inet.AFInet6, nil)
	tc.mu.Lock()
	fillBufs(c)
	c.state = StateFinWait2
	c.processFIN()
	tc.mu.Unlock()
	if c.State() != StateTimeWait {
		t.Fatalf("state %v, want TIME_WAIT", c.State())
	}
	if c.sndArr != nil || c.sndBuf != nil {
		t.Fatal("TIME_WAIT handle kept its send array")
	}
	if c.rcvArr == nil {
		t.Fatal("TIME_WAIT handle dropped unread data")
	}
	if n, err := c.ReadInto(make([]byte, 100)); n != 64 || err != nil {
		t.Fatalf("ReadInto = %d, %v; want the 64 unread bytes", n, err)
	}
	if c.rcvArr != nil {
		t.Fatal("receive array outlived the last read")
	}

	// A connection torn down outside TIME_WAIT releases both at once
	// when nothing is left to read.
	d := tc.Attach(inet.AFInet6, nil)
	tc.mu.Lock()
	fillBufs(d)
	d.rcvBuf = d.rcvBuf[len(d.rcvBuf):]
	d.state = StateEstablished
	d.closeLocked(ErrClosed)
	tc.mu.Unlock()
	if d.sndArr != nil || d.rcvArr != nil {
		t.Fatal("closed connection kept its buffer arrays")
	}
}
