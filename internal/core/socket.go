package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/pcb"
	"bsd6/internal/tcp"
	"bsd6/internal/vclock"
)

// Socket types.
const (
	SockDgram  = 1 // UDP
	SockStream = 2 // TCP
)

// Socket option names for SetSecurity — the new options of §6.1.
type SecurityOption int

const (
	SoSecurityAuthentication SecurityOption = iota + 1 // SO_SECURITY_AUTHENTICATION
	SoSecurityEncryptTrans                             // SO_SECURITY_ENCRYPTION_TRANSPORT
	SoSecurityEncryptTunnel                            // SO_SECURITY_ENCRYPTION_TUNNEL
)

// Errors surfaced by the socket layer. EIPSEC is re-exported from the
// security module: "the newly defined IP Security processing error"
// (§3.3), returned "so the user can be informed of the problem" (§6.3).
var (
	EIPSEC         = ipsec.EIPSEC
	ErrTimeoutSock = errors.New("socket: operation timed out")
	ErrClosedSock  = errors.New("socket: closed")
	ErrConnRefused = errors.New("socket: connection refused")
	ErrMsgSize     = errors.New("socket: message too long")
	ErrHostUnreach = errors.New("socket: no route to host")
	ErrNotStream   = errors.New("socket: not a stream socket")
	ErrNotDgram    = errors.New("socket: not a datagram socket")
)

// Sockaddr6 is struct sockaddr_in6 (paper Figure 7): family, port,
// flow info and a 128-bit address. IPv4 endpoints are expressed in
// v4-mapped form on PF_INET sockets too, keeping one type.
type Sockaddr6 struct {
	Family   inet.Family
	Port     uint16
	FlowInfo uint32
	Addr     inet.IP6
}

func (sa Sockaddr6) String() string {
	return fmt.Sprintf("[%s]:%d", sa.Addr, sa.Port)
}

// Addr6 builds a PF_INET6 sockaddr.
func Addr6(addr inet.IP6, port uint16) Sockaddr6 {
	return Sockaddr6{Family: inet.AFInet6, Port: port, Addr: addr}
}

// Addr4 builds a PF_INET sockaddr (stored v4-mapped).
func Addr4(addr inet.IP4, port uint16) Sockaddr6 {
	return Sockaddr6{Family: inet.AFInet, Port: port, Addr: inet.V4Mapped(addr)}
}

type dgramMsg struct {
	data []byte
	src  inet.IP6
	port uint16
	flow uint32
}

// Socket is a BSD-style socket over the stack.
type Socket struct {
	stack  *Stack
	family inet.Family
	typ    int

	mu   sync.Mutex
	cond *sync.Cond
	// wakeups counts broadcasts.  It is bumped under mu, so a caller
	// that read it before a TCP call and finds it unchanged under mu
	// knows no wakeup fired in between and may wait (waitSince).
	wakeups atomic.Uint64

	// Datagram state.
	p       *pcb.PCB
	rq      []dgramMsg
	rqBytes int
	RqMax   int

	// Stream state.
	conn      *tcp.Conn
	listening bool

	// secMu guards sec alone.  TCP input reads sec through the
	// security module while holding the TCP lock, and socket calls
	// take the TCP lock while holding mu, so sec must not share mu.
	secMu sync.Mutex
	sec   ipsec.SockOpts

	err    error
	closed bool
}

// NewSocket is socket(2): create a PF_INET or PF_INET6 socket of the
// given type.
func (s *Stack) NewSocket(family inet.Family, typ int) (*Socket, error) {
	if family != inet.AFInet && family != inet.AFInet6 {
		return nil, fmt.Errorf("socket: unsupported family %v", family)
	}
	sock := &Socket{stack: s, family: family, typ: typ, RqMax: 256 << 10}
	sock.cond = sync.NewCond(&sock.mu)
	switch typ {
	case SockDgram:
		sock.p = s.UDP.Table.Attach(family, sock)
	case SockStream:
		sock.conn = s.TCP.Attach(family, sock)
		sock.conn.Wakeup = sock.broadcast
	default:
		return nil, fmt.Errorf("socket: unsupported type %d", typ)
	}
	return sock, nil
}

func (sock *Socket) clock() vclock.Clock { return sock.stack.clock }

func (sock *Socket) broadcast() {
	sock.mu.Lock()
	sock.wakeups.Add(1)
	sock.cond.Broadcast()
	sock.mu.Unlock()
}

// waitSince waits for a broadcast or the deadline, unless a broadcast
// already fired since the caller read seq from sock.wakeups.  Callers
// read seq before the TCP call that found nothing to do and then wait
// here without holding mu across that call (flush runs wakeups, which
// take mu), so a wakeup in the gap is not lost.  Returns false on
// timeout; a broadcast that lands together with the deadline counts,
// so the caller re-checks its condition before giving up.
func (sock *Socket) waitSince(seq uint64, deadline time.Time) bool {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	if sock.wakeups.Load() != seq {
		return true
	}
	return sock.waitLocked(deadline) || sock.wakeups.Load() != seq
}

// SecurityOpts returns the socket's requested security levels; the
// security module's SocketOpts hook reads this through the packet's
// socket back pointer (§3.3).
func (sock *Socket) SecurityOpts() ipsec.SockOpts {
	sock.secMu.Lock()
	defer sock.secMu.Unlock()
	return sock.sec
}

// SetSecurity is setsockopt(2) for the §6.1 security options, with the
// four levels (0 none, 1 use, 2 require, 3 require-unique).
func (sock *Socket) SetSecurity(opt SecurityOption, level ipsec.Level) error {
	if level < 0 || level > 3 {
		return fmt.Errorf("socket: invalid security level %d", level)
	}
	sock.secMu.Lock()
	defer sock.secMu.Unlock()
	switch opt {
	case SoSecurityAuthentication:
		sock.sec.Auth = level
	case SoSecurityEncryptTrans:
		sock.sec.ESPTransport = level
	case SoSecurityEncryptTunnel:
		sock.sec.ESPTunnel = level
	default:
		return fmt.Errorf("socket: unknown security option %d", opt)
	}
	sock.stack.secActive.Store(true)
	return nil
}

// SetSecurityBypass marks the socket as exempt from IP security — the
// privileged option of §6.3 for key management daemons and
// application-layer-secured services. It "would fail if the effective
// user-id of the process connected to the socket was not equal to 0 so
// that ordinary user applications could not bypass system security."
func (sock *Socket) SetSecurityBypass(euid int) error {
	if euid != 0 {
		return errors.New("socket: EPERM: security bypass requires effective uid 0")
	}
	sock.secMu.Lock()
	sock.sec.Bypass = true
	sock.secMu.Unlock()
	sock.stack.secActive.Store(true)
	return nil
}

// SetV6Only restricts a PF_INET6 socket to IPv6 traffic.
func (sock *Socket) SetV6Only(on bool) {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	p := sock.pcbRef()
	if p == nil {
		return
	}
	if on {
		p.Flags |= pcb.FlagV6Only
	} else {
		p.Flags &^= pcb.FlagV6Only
	}
}

// SetBuffers sets the send/receive buffer sizes (SO_SNDBUF/SO_RCVBUF
// — the socket-buffer-size axis of the paper's Table 3).
func (sock *Socket) SetBuffers(snd, rcv int) {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	if sock.conn != nil {
		if snd > 0 {
			sock.conn.SndBufMax = snd
		}
		if rcv > 0 {
			sock.conn.RcvBufMax = rcv
		}
	}
	if rcv > 0 {
		sock.RqMax = rcv
	}
}

func (sock *Socket) pcbRef() *pcb.PCB {
	if sock.p != nil {
		return sock.p
	}
	if sock.conn != nil {
		return sock.conn.PCB()
	}
	return nil
}

// Bind is bind(2).
func (sock *Socket) Bind(sa Sockaddr6) error {
	switch sock.typ {
	case SockDgram:
		return sock.stack.UDP.Table.Bind(sock.p, sa.Addr, sa.Port)
	case SockStream:
		return sock.conn.Bind(sa.Addr, sa.Port)
	}
	return ErrNotStream
}

// Connect is connect(2). Stream sockets block until the handshake
// completes or timeout expires (zero timeout means 30s).
func (sock *Socket) Connect(sa Sockaddr6, timeout time.Duration) error {
	switch sock.typ {
	case SockDgram:
		sock.mu.Lock()
		sock.p.FlowInfo = sa.FlowInfo
		sock.mu.Unlock()
		return sock.stack.UDP.Table.Connect(sock.p, sa.Addr, sa.Port)
	case SockStream:
		sock.conn.PCB().FlowInfo = sa.FlowInfo
		if err := sock.conn.Connect(sa.Addr, sa.Port); err != nil {
			return err
		}
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		deadline := sock.clock().Now().Add(timeout)
		sock.mu.Lock()
		defer sock.mu.Unlock()
		for {
			st := sock.conn.State()
			if st == tcp.StateEstablished {
				return nil
			}
			if err := sock.conn.Err(); err != nil {
				return err
			}
			if st == tcp.StateClosed {
				return ErrClosedSock
			}
			if !sock.waitLocked(deadline) {
				return ErrTimeoutSock
			}
		}
	}
	return ErrNotStream
}

// waitLocked waits on the condition until broadcast or deadline
// (measured on the stack's clock, so virtual-time stacks time out in
// simulated time). Returns false on timeout. Caller holds sock.mu.
func (sock *Socket) waitLocked(deadline time.Time) bool {
	clk := sock.clock()
	if !deadline.IsZero() && !clk.Now().Before(deadline) {
		return false
	}
	done := make(chan struct{})
	var fired bool
	var tm vclock.Timer
	if !deadline.IsZero() {
		tm = clk.AfterFunc(deadline.Sub(clk.Now()), func() {
			sock.mu.Lock()
			fired = true
			sock.cond.Broadcast()
			sock.mu.Unlock()
			close(done)
		})
	}
	sock.cond.Wait()
	if tm != nil {
		if tm.Stop() {
			// Timer cancelled; it never fired.
		} else if !fired {
			// Let the callback finish to avoid racing the lock.
			sock.mu.Unlock()
			<-done
			sock.mu.Lock()
		}
	}
	return !fired
}

// Listen is listen(2).
func (sock *Socket) Listen(backlog int) error {
	if sock.typ != SockStream {
		return ErrNotStream
	}
	sock.mu.Lock()
	sock.listening = true
	sock.mu.Unlock()
	return sock.conn.Listen(backlog)
}

// Accept is accept(2): blocks until a connection is ready or the
// timeout passes (zero = block indefinitely).
func (sock *Socket) Accept(timeout time.Duration) (*Socket, error) {
	if sock.typ != SockStream {
		return nil, ErrNotStream
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = sock.clock().Now().Add(timeout)
	}
	cs := &Socket{stack: sock.stack, family: sock.family, typ: SockStream, RqMax: sock.RqMax}
	cs.cond = sync.NewCond(&cs.mu)
	for {
		seq := sock.wakeups.Load()
		cs.sec = sock.SecurityOpts() // children inherit security levels
		if child := sock.conn.Accept(cs.broadcast, cs); child != nil {
			cs.conn = child
			return cs, nil
		}
		sock.mu.Lock()
		closed := sock.closed
		sock.mu.Unlock()
		if closed {
			return nil, ErrClosedSock
		}
		if !sock.waitSince(seq, deadline) {
			return nil, ErrTimeoutSock
		}
	}
}

// SendTo is sendto(2) for datagram sockets (paper Figure 7).
func (sock *Socket) SendTo(data []byte, sa Sockaddr6) error {
	if sock.typ != SockDgram {
		return ErrNotDgram
	}
	sock.mu.Lock()
	sock.p.FlowInfo = sa.FlowInfo
	sock.mu.Unlock()
	return sock.stack.UDP.Output(sock.p, data, sa.Addr, sa.Port)
}

// Send writes on a connected socket. For streams it blocks until all
// bytes are queued (or the deadline passes); for datagrams it sends
// one datagram to the connected peer.
func (sock *Socket) Send(data []byte, timeout time.Duration) (int, error) {
	switch sock.typ {
	case SockDgram:
		if err := sock.stack.UDP.Output(sock.p, data, inet.IP6{}, 0); err != nil {
			return 0, err
		}
		return len(data), nil
	case SockStream:
		var deadline time.Time
		if timeout > 0 {
			deadline = sock.clock().Now().Add(timeout)
		}
		sent := 0
		for sent < len(data) {
			seq := sock.wakeups.Load()
			n, err := sock.conn.Send(data[sent:])
			if err != nil {
				return sent, err
			}
			sent += n
			if n == 0 && !sock.waitSince(seq, deadline) {
				return sent, ErrTimeoutSock
			}
		}
		return sent, nil
	}
	return 0, ErrNotStream
}

// enqueueDgram appends a received datagram (drops when the socket
// buffer is full, as BSD does).
func (sock *Socket) enqueueDgram(data []byte, src inet.IP6, sport uint16, flow uint32) {
	sock.mu.Lock()
	if sock.rqBytes+len(data) <= sock.RqMax {
		sock.rq = append(sock.rq, dgramMsg{append([]byte(nil), data...), src, sport, flow})
		sock.rqBytes += len(data)
		sock.cond.Broadcast()
	}
	sock.mu.Unlock()
}

// setError records an asynchronous error (from ICMP) on the socket.
func (sock *Socket) setError(err error) {
	sock.mu.Lock()
	if sock.err == nil {
		sock.err = err
	}
	sock.cond.Broadcast()
	sock.mu.Unlock()
}

// RecvFrom is recvfrom(2): blocks for a datagram (or stream data; the
// source is then the connected peer).
func (sock *Socket) RecvFrom(max int, timeout time.Duration) ([]byte, Sockaddr6, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = sock.clock().Now().Add(timeout)
	}
	switch sock.typ {
	case SockDgram:
		sock.mu.Lock()
		defer sock.mu.Unlock()
		for {
			if len(sock.rq) > 0 {
				m := sock.rq[0]
				sock.rq = sock.rq[1:]
				sock.rqBytes -= len(m.data)
				data := m.data
				if max > 0 && len(data) > max {
					data = data[:max] // excess is discarded, as recvfrom does
				}
				fam := inet.AFInet6
				if m.src.IsV4Mapped() && sock.family == inet.AFInet {
					fam = inet.AFInet
				}
				return data, Sockaddr6{Family: fam, Addr: m.src, Port: m.port, FlowInfo: m.flow}, nil
			}
			if sock.err != nil {
				err := sock.err
				sock.err = nil // asynchronous errors report once
				return nil, Sockaddr6{}, err
			}
			if sock.closed {
				return nil, Sockaddr6{}, ErrClosedSock
			}
			if !sock.waitLocked(deadline) {
				return nil, Sockaddr6{}, ErrTimeoutSock
			}
		}
	case SockStream:
		data, err := sock.recvStream(max, deadline)
		return data, sock.RemoteAddr(), err
	}
	return nil, Sockaddr6{}, ErrNotDgram
}

// Recv reads from a stream socket, blocking until data, EOF or
// timeout.
func (sock *Socket) Recv(max int, timeout time.Duration) ([]byte, error) {
	if sock.typ != SockStream {
		data, _, err := sock.RecvFrom(max, timeout)
		return data, err
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = sock.clock().Now().Add(timeout)
	}
	return sock.recvStream(max, deadline)
}

func (sock *Socket) recvStream(max int, deadline time.Time) ([]byte, error) {
	if max <= 0 {
		max = 64 << 10
	}
	for {
		seq := sock.wakeups.Load()
		data, err := sock.conn.Recv(max)
		if err != nil {
			if errors.Is(err, tcp.ErrClosed) {
				return nil, ErrClosedSock // EOF
			}
			return nil, err
		}
		if data != nil {
			return data, nil
		}
		if !sock.waitSince(seq, deadline) {
			return nil, ErrTimeoutSock
		}
	}
}

// ReadInto is read(2): it copies stream data into p, blocking until
// data, EOF or timeout, and returns the byte count.  Unlike Recv it
// allocates nothing, so a bulk receiver can reuse one buffer for the
// life of the connection.
func (sock *Socket) ReadInto(p []byte, timeout time.Duration) (int, error) {
	if sock.typ != SockStream {
		data, _, err := sock.RecvFrom(len(p), timeout)
		return copy(p, data), err
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = sock.clock().Now().Add(timeout)
	}
	for {
		seq := sock.wakeups.Load()
		n, err := sock.conn.ReadInto(p)
		if err != nil {
			if errors.Is(err, tcp.ErrClosed) {
				return 0, ErrClosedSock // EOF
			}
			return 0, err
		}
		if n > 0 {
			return n, nil
		}
		if !sock.waitSince(seq, deadline) {
			return 0, ErrTimeoutSock
		}
	}
}

// Close is close(2) (for streams: graceful FIN; the final release
// happens when TCP finishes).
func (sock *Socket) Close() error {
	sock.mu.Lock()
	if sock.closed {
		sock.mu.Unlock()
		return nil
	}
	sock.closed = true
	sock.wakeups.Add(1)
	sock.cond.Broadcast()
	sock.mu.Unlock()
	switch sock.typ {
	case SockDgram:
		sock.stack.UDP.Table.Detach(sock.p)
	case SockStream:
		return sock.conn.Close()
	}
	return nil
}

// Conn exposes the TCP connection for introspection (state, MSS).
func (sock *Socket) Conn() *tcp.Conn { return sock.conn }

// LocalAddr returns the bound address.
func (sock *Socket) LocalAddr() Sockaddr6 {
	p := sock.pcbRef()
	if p == nil {
		return Sockaddr6{}
	}
	return Sockaddr6{Family: sock.family, Addr: p.LAddr, Port: p.LPort, FlowInfo: p.FlowInfo}
}

// RemoteAddr returns the connected peer.
func (sock *Socket) RemoteAddr() Sockaddr6 {
	p := sock.pcbRef()
	if p == nil {
		return Sockaddr6{}
	}
	return Sockaddr6{Family: sock.family, Addr: p.FAddr, Port: p.FPort, FlowInfo: p.FlowInfo}
}
