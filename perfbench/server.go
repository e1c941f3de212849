package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is a schemex-server child process on a loopback port, with durable
// sessions under its data directory and the default -sync always.
type server struct {
	ctx    context.Context // bounds every request; cancelled when the run is interrupted
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	client *http.Client

	mu      sync.Mutex
	stderr  bytes.Buffer // the child's log, kept for error reports
	logged  chan struct{}
	stopped bool
}

// startServer launches the binary and waits until it is listening.
func startServer(ctx context.Context, bin, dataDir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-sync", "always")
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{ctx: ctx, cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.stderr.Len() < 1<<20 {
				s.stderr.WriteString(line + "\n")
			}
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	select {
	case a := <-addr:
		s.addr, s.base = a, "http://"+a
	case <-s.logged:
		s.wait()
		return nil, fmt.Errorf("server exited before listening: %s", s.log())
	case <-timer.C:
		s.kill()
		return nil, errors.New("server did not start listening within 60s")
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	return s, nil
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// wait reaps the child and its log reader.
func (s *server) wait() error {
	<-s.logged
	return s.cmd.Wait()
}

func (s *server) kill() {
	s.stopped = true
	s.cmd.Process.Kill()
	s.wait()
}

// release kills the server unless it was already stopped; deferred by
// every owner so no error path leaves a child running.
func (s *server) release() {
	if !s.stopped {
		s.kill()
	}
}

// stop shuts the server down gracefully (SIGTERM: drain, flush session
// logs, exit 0) and reports an unclean exit as an error. A server that does
// not exit within 60s is killed.
func (s *server) stop() error {
	s.stopped = true
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exit: %v: %s", err, s.log())
		}
		return nil
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return errors.New("server did not stop within 60s")
	}
}

// call sends one request and decodes a JSON reply into out (when non-nil).
// A status other than want is an error carrying the reply body.
func (s *server) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(s.ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return nil
}

// The wire shapes the benchmark reads (a subset of internal/httpapi's).
type sessionInfo struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Objects int    `json:"objects"`
	Links   int    `json:"links"`
}

type typeJSON struct {
	Name       string `json:"name"`
	Definition string `json:"definition"`
	Weight     int    `json:"weight"`
	Size       int    `json:"size"`
}

type extractReply struct {
	Schema       string     `json:"schema"`
	PerfectTypes int        `json:"perfectTypes"`
	NumTypes     int        `json:"numTypes"`
	Defect       int        `json:"defect"`
	Excess       int        `json:"excess"`
	Deficit      int        `json:"deficit"`
	Unclassified int        `json:"unclassified"`
	Types        []typeJSON `json:"types"`
	Incremental  *struct {
		Stage1Warm   bool    `json:"stage1Warm"`
		Stage2Warm   bool    `json:"stage2Warm"`
		Stage3Warm   bool    `json:"stage3Warm"`
		FastPath     bool    `json:"fastPath"`
		DirtyTypes   int     `json:"dirtyTypes"`
		DirtyObjects int     `json:"dirtyObjects"`
		Stage1Ms     float64 `json:"stage1Ms"`
		Stage2Ms     float64 `json:"stage2Ms"`
		Stage3Ms     float64 `json:"stage3Ms"`
		TotalMs      float64 `json:"totalMs"`
	} `json:"incremental"`
}

// serverMetrics is the part of GET /v1/metrics the benchmark reads.
type serverMetrics struct {
	ApplyIncremental float64 `json:"schemex_apply_incremental"`
	ApplyFallback    float64 `json:"schemex_apply_fallback"`
	Queue            struct {
		Batches      float64 `json:"batches"`
		BatchSizeP50 float64 `json:"batchSizeP50"`
	} `json:"schemex_queue"`
	Memstats struct {
		TotalAlloc   float64 `json:"TotalAlloc"`
		PauseTotalNs float64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	err := s.call("GET", "/v1/metrics", nil, http.StatusOK, &m)
	return m, err
}

// createSession uploads a graph in the text format.
func (s *server) createSession(text []byte) (sessionInfo, error) {
	var info sessionInfo
	err := s.call("POST", "/v1/session", map[string]string{"data": string(text)}, http.StatusOK, &info)
	return info, err
}

func (s *server) extract(id string, k int) (extractReply, error) {
	var r extractReply
	err := s.call("POST", "/v1/session/"+id+"/extract", map[string]any{"options": map[string]int{"k": k}}, http.StatusOK, &r)
	return r, err
}

// pipe is one HTTP/1.1 connection on which a caller writes several requests
// back to back and then reads their replies in order. The server handles a
// connection's requests one after another, so they take effect in the
// order they were written.
type pipe struct {
	srv  *server
	conn net.Conn
	rd   *bufio.Reader
}

// pipeReq is one request of a pipelined burst.
type pipeReq struct {
	path string
	body []byte
	want int // expected status
}

func (s *server) dialPipe() (*pipe, error) {
	var d net.Dialer
	conn, err := d.DialContext(s.ctx, "tcp", s.addr)
	if err != nil {
		return nil, err
	}
	return &pipe{srv: s, conn: conn, rd: bufio.NewReader(conn)}, nil
}

func (p *pipe) close() { p.conn.Close() }

// send writes every request in one write, then reads the replies in order
// and decodes the last one into out.
func (p *pipe) send(reqs []pipeReq, out any) error {
	var buf bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&buf, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", r.path, p.srv.addr, len(r.body))
		buf.Write(r.body)
	}
	if err := p.conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return err
	}
	if _, err := p.conn.Write(buf.Bytes()); err != nil {
		return err
	}
	for i, r := range reqs {
		resp, err := http.ReadResponse(p.rd, nil)
		if err != nil {
			return fmt.Errorf("reply %d of %d: %w", i+1, len(reqs), err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reply %d of %d: %w", i+1, len(reqs), err)
		}
		if resp.StatusCode != r.want {
			return fmt.Errorf("POST %s: status %d, want %d: %s", r.path, resp.StatusCode, r.want, bytes.TrimSpace(data))
		}
		if i == len(reqs)-1 && out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("POST %s: decoding reply: %w", r.path, err)
			}
		}
	}
	return nil
}
