package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var (
	healthzReq = []byte("GET /healthz HTTP/1.1\r\nHost: fepiad\r\n\r\n")
	metricsReq = []byte("GET /metrics HTTP/1.1\r\nHost: fepiad\r\n\r\n")
)

// conn is a minimal HTTP/1.1 client over one keep-alive connection. It
// writes pre-serialised requests and reads each response into a reused
// buffer, so the timed loop allocates nothing per request and the
// client's own cost per request stays small and constant.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

// do sends one request and returns the status and the body, which stays
// valid until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if _, err := c.nc.Write(req); err != nil {
		return 0, nil, fmt.Errorf("writing request: %w", err)
	}
	line, err := c.line()
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.line()
		if err != nil {
			return 0, nil, err
		}
		if len(h) == 0 {
			break
		}
		k, v, _ := bytes.Cut(h, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			h, err := c.line()
			if err != nil {
				return 0, nil, err
			}
			hex, _, _ := bytes.Cut(h, []byte(";"))
			size, err := strconv.ParseUint(string(hex), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", h)
			}
			if size == 0 {
				for { // trailers, then the empty line
					t, err := c.line()
					if err != nil {
						return 0, nil, err
					}
					if len(t) == 0 {
						return status, c.body, nil
					}
				}
			}
			if err := c.read(int(size)); err != nil {
				return 0, nil, err
			}
			if t, err := c.line(); err != nil || len(t) != 0 {
				return 0, nil, fmt.Errorf("chunk not followed by CRLF: %v", err)
			}
		}
	case length >= 0:
		if err := c.read(length); err != nil {
			return 0, nil, err
		}
		return status, c.body, nil
	}
	return 0, nil, errors.New("response has neither Content-Length nor chunked framing")
}

// line reads one line without its CRLF.
func (c *conn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// read appends the next n body bytes.
func (c *conn) read(n int) error {
	at := len(c.body)
	c.body = slices.Grow(c.body, n)[:at+n]
	if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	return nil
}

// fepiad is one child fepiad process on default flags and the single
// client connection the benchmark drives it through.
type fepiad struct {
	cmd  *exec.Cmd
	done chan error
	conn *conn
}

// boot execs fepiad with only -addr set and polls /healthz every 200µs
// until it answers 200; that connection becomes the client's one
// connection.
func boot(bin string) (*fepiad, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer devnull.Close()
	cmd := exec.Command(bin, "-addr", addr)
	// The access log (one JSON line per request on stderr) is discarded,
	// never left to fill an unread pipe.
	cmd.Stdout, cmd.Stderr = devnull, devnull
	cmd.Env = defaultEnv()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fepiad: %w", err)
	}
	f := &fepiad{cmd: cmd, done: make(chan error, 1)}
	go func() { f.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-f.done:
			return nil, fmt.Errorf("fepiad exited during boot: %v", err)
		default:
		}
		if c, err := dial(addr); err == nil {
			if status, _, err := c.do(healthzReq); err == nil && status == 200 {
				f.conn = c
				return f, nil
			}
			c.nc.Close()
		}
		if time.Now().After(deadline) {
			_ = f.stop()
			return nil, errors.New("fepiad not healthy within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// defaultEnv is the environment minus the variables that would move
// fepiad off its defaults.
func defaultEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", "FEPIAD_FAULTS":
		default:
			env = append(env, kv)
		}
	}
	return env
}

// stop sends SIGTERM, on which fepiad drains and exits, and waits for
// the process; it kills it if the drain takes over ten seconds.
func (f *fepiad) stop() error {
	if f.conn != nil {
		f.conn.nc.Close()
	}
	_ = f.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-f.done:
		if err != nil {
			return fmt.Errorf("fepiad exit: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = f.cmd.Process.Kill()
		<-f.done
		return errors.New("fepiad did not drain within 10s and was killed")
	}
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (f *fepiad) scrape() (map[string]float64, error) {
	status, body, err := f.conn.do(metricsReq)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		line, _, _ = strings.Cut(line, " # ") // exemplar
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

// usPerTick converts /proc clock ticks (USER_HZ, 100 on Linux) to µs.
const usPerTick = 1e4

// cpuTicks is fepiad's user+sys CPU time so far, in clock ticks.
func (f *fepiad) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", f.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	fields := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc/<pid>/stat")
	}
	u, err1 := strconv.ParseInt(fields[11], 10, 64)
	s, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/<pid>/stat: %w", err)
	}
	return u + s, nil
}

// peakRSSKB is fepiad's VmHWM in kB.
func (f *fepiad) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", f.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}
