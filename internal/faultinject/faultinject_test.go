package faultinject

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"
)

const writes = 64

// push sends the bytes 0..writes-1, one Write each, through the first
// connection a cfg-wrapped listener accepts. It returns what the peer
// received, the index of the first failed Write (writes if none) and the
// time the writes took.
func push(t *testing.T, cfg Config) (got []byte, failedAt int, elapsed time.Duration) {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "f.sock"))
	if err != nil {
		t.Fatal(err)
	}
	fl := Listener(ln, cfg)
	defer fl.Close()
	recv := make(chan []byte, 1)
	go func() {
		c, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			recv <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		recv <- b
	}()
	c, err := fl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	failedAt = writes
	for i := 0; i < writes; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			failedAt = i
			break
		}
	}
	elapsed = time.Since(start)
	c.Close()
	return <-recv, failedAt, elapsed
}

// Each fault is observed alone, a zero config is a transparent pipe, and —
// the property resilience tests replay failures by — one seed fixes the
// whole fault schedule.
func TestFaultSchedule(t *testing.T) {
	all := make([]byte, writes)
	for i := range all {
		all[i] = byte(i)
	}
	cases := []struct {
		name  string
		cfg   Config
		check func(got []byte, failedAt int, elapsed time.Duration) bool
	}{
		{"zero config passes bytes through", Config{Seed: 7},
			func(got []byte, failedAt int, _ time.Duration) bool {
				return bytes.Equal(got, all) && failedAt == writes
			}},
		{"drop swallows writes silently", Config{Seed: 7, DropProb: 0.3},
			func(got []byte, failedAt int, _ time.Duration) bool {
				return failedAt == writes && len(got) > 0 && len(got) < writes && increasing(got)
			}},
		{"sever closes the connection mid-stream", Config{Seed: 7, SeverProb: 0.1},
			func(got []byte, failedAt int, _ time.Duration) bool {
				return failedAt < writes && bytes.Equal(got, all[:failedAt])
			}},
		{"delay stalls writes and loses nothing", Config{Seed: 7, DelayProb: 1, MaxDelay: 2 * time.Millisecond},
			func(got []byte, failedAt int, elapsed time.Duration) bool {
				// 64 sleeps uniform in (0, 2ms] fixed by the seed: ~64ms.
				return bytes.Equal(got, all) && failedAt == writes && elapsed >= 10*time.Millisecond
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, failedAt, elapsed := push(t, tc.cfg)
			if !tc.check(got, failedAt, elapsed) {
				t.Fatalf("received %v, first failed write %d, took %v", got, failedAt, elapsed)
			}
			again, againAt, _ := push(t, tc.cfg)
			if !bytes.Equal(again, got) || againAt != failedAt {
				t.Fatalf("same seed, different schedule: %v/%d then %v/%d", got, failedAt, again, againAt)
			}
		})
	}
}

// increasing reports whether b — drawn from the bytes 0..writes-1 sent in
// order — kept that order, i.e. is what survives of the stream.
func increasing(b []byte) bool {
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return false
		}
	}
	return true
}
