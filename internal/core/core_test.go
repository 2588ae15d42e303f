package core

import (
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/sched"
)

func TestDefaultPathsShape(t *testing.T) {
	specs := DefaultPaths(0.3, 8.6)
	if len(specs) != 2 {
		t.Fatalf("paths = %d, want 2", len(specs))
	}
	if specs[0].Name != "wifi" || specs[1].Name != "lte" {
		t.Fatalf("names = %s/%s", specs[0].Name, specs[1].Name)
	}
	if specs[0].BaseRTT >= specs[1].BaseRTT {
		t.Fatal("wifi base RTT should be below lte's")
	}
}

func TestNetworkAssembly(t *testing.T) {
	net := NewNetwork(DefaultPaths(1, 10))
	paths := net.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
	if paths[0].Forward().RateBps() != 1e6 || paths[1].Forward().RateBps() != 10e6 {
		t.Fatal("rates not applied")
	}
	if paths[0].Forward().QueueBytes() != defaultQueueBytes {
		t.Fatalf("queue default = %d", paths[0].Forward().QueueBytes())
	}
}

func TestSetRateMbps(t *testing.T) {
	net := NewNetwork(DefaultPaths(1, 10))
	net.SetRateMbps(0, 4.2)
	if got := net.Paths()[0].Forward().RateBps(); got != 4.2e6 {
		t.Fatalf("rate = %v", got)
	}
}

func TestNewConnDefaults(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	conn := net.NewConn(ConnOptions{})
	if conn.Scheduler().Name() != "minrtt" {
		t.Fatalf("default scheduler = %s", conn.Scheduler().Name())
	}
	if len(conn.Subflows()) != 2 {
		t.Fatalf("subflows = %d", len(conn.Subflows()))
	}
	// Handshake-seeded RTT estimates exist.
	for _, sf := range conn.Subflows() {
		if !sf.HasRTTSample() {
			t.Fatal("subflow should have a handshake RTT seed")
		}
	}
}

func TestNewConnAllSchedulers(t *testing.T) {
	for _, name := range sched.Names() {
		net := NewNetwork(DefaultPaths(5, 5))
		conn := net.NewConn(ConnOptions{Scheduler: name})
		done := false
		conn.Request(100_000, func(*mptcp.Transfer) { done = true })
		net.Run(time.Minute)
		if !done {
			t.Fatalf("scheduler %s did not complete a simple transfer", name)
		}
	}
}

func TestNewConnAllControllers(t *testing.T) {
	for _, ccName := range []string{"lia", "olia", "reno"} {
		net := NewNetwork(DefaultPaths(5, 5))
		conn := net.NewConn(ConnOptions{Scheduler: "ecf", CongestionControl: ccName})
		done := false
		conn.Request(500_000, func(*mptcp.Transfer) { done = true })
		net.Run(time.Minute)
		if !done {
			t.Fatalf("controller %s did not complete a transfer", ccName)
		}
	}
}

func TestNewConnUnknownCCPanics(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("unknown cc did not panic")
		}
	}()
	net.NewConn(ConnOptions{CongestionControl: "cubic"})
}

func TestNewConnUnknownSchedulerPanics(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheduler did not panic")
		}
	}()
	net.NewConn(ConnOptions{Scheduler: "bogus"})
}

func TestSubflowsPerPath(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	conn := net.NewConn(ConnOptions{Scheduler: "ecf", SubflowsPerPath: 2})
	subflows := conn.Subflows()
	if len(subflows) != 4 {
		t.Fatalf("subflows = %d, want 4", len(subflows))
	}
	// Naming: wifi#0, lte#0, wifi#1, lte#1.
	if subflows[0].Name() != "wifi#0" || subflows[3].Name() != "lte#1" {
		t.Fatalf("names = %s..%s", subflows[0].Name(), subflows[3].Name())
	}
	done := false
	conn.Request(1<<20, func(*mptcp.Transfer) { done = true })
	net.Run(time.Minute)
	if !done {
		t.Fatal("4-subflow transfer incomplete")
	}
}

func TestConnIDsUnique(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	a := net.NewConn(ConnOptions{})
	b := net.NewConn(ConnOptions{})
	if a.ID() == b.ID() {
		t.Fatal("connection IDs must be unique per network")
	}
}

func TestMidStreamRateChange(t *testing.T) {
	// Squeeze the LTE path mid-transfer; the transfer must still finish,
	// just slower than an unsqueezed one.
	run := func(squeeze bool) time.Duration {
		net := NewNetwork(DefaultPaths(1, 10))
		conn := net.NewConn(ConnOptions{Scheduler: "ecf"})
		var dur time.Duration
		conn.Request(4<<20, func(tr *mptcp.Transfer) { dur = tr.Duration() })
		if squeeze {
			net.Engine().Schedule(time.Second, func() { net.SetRateMbps(1, 0.5) })
		}
		net.Run(5 * time.Minute)
		if dur == 0 {
			t.Fatal("transfer incomplete")
		}
		return dur
	}
	fast := run(false)
	slow := run(true)
	if slow <= fast {
		t.Fatalf("squeezed run %v not slower than clean run %v", slow, fast)
	}
}

func TestMidStreamBlackoutRecovery(t *testing.T) {
	// Total blackout of the fast path for 3 s mid-transfer: RTO-driven
	// recovery must finish the transfer after the path returns.
	net := NewNetwork(DefaultPaths(1, 10))
	conn := net.NewConn(ConnOptions{Scheduler: "ecf"})
	done := false
	conn.Request(3<<20, func(*mptcp.Transfer) { done = true })
	eng := net.Engine()
	eng.Schedule(500*time.Millisecond, func() {
		net.Paths()[1].Forward().SetLossRate(1.0)
	})
	eng.Schedule(3500*time.Millisecond, func() {
		net.Paths()[1].Forward().SetLossRate(0)
	})
	net.Run(5 * time.Minute)
	if !done {
		t.Fatal("transfer did not survive the blackout")
	}
}

func TestEngineAccessors(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	if net.Engine() == nil {
		t.Fatal("nil engine")
	}
	net.Run(time.Second)
	if net.Now() != time.Second {
		t.Fatalf("Now = %v", net.Now())
	}
}

func TestConnConfigOverride(t *testing.T) {
	net := NewNetwork(DefaultPaths(5, 5))
	cfg := mptcp.Config{SndBuf: 64 << 10, RcvBuf: 64 << 10}
	conn := net.NewConn(ConnOptions{Scheduler: "ecf", Config: &cfg})
	if conn.SendWindowBytes() != 64<<10 {
		t.Fatalf("send window = %d, want 64KiB", conn.SendWindowBytes())
	}
	done := false
	conn.Request(1<<20, func(*mptcp.Transfer) { done = true })
	net.Run(2 * time.Minute)
	if !done {
		t.Fatal("tiny-buffer transfer incomplete")
	}
}
