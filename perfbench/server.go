package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is one wfqserve child process.
type server struct {
	cmd  *exec.Cmd
	addr string
}

// startServer launches bin on an ephemeral loopback port and waits for
// its "listening on <addr>" line.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd}
	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(out).ReadString('\n')
		line <- l
	}()
	select {
	case l := <-line:
		const marker = "listening on "
		i := strings.Index(l, marker)
		if i < 0 {
			s.stop()
			return nil, fmt.Errorf("wfqserve: unexpected first line %q", l)
		}
		s.addr = strings.Fields(l[i+len(marker):])[0]
		// The reader goroutine has returned; drain the rest of the
		// output (the shutdown line) so the child never blocks on it.
		go func() { _, _ = io.Copy(io.Discard, out) }()
		return s, nil
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("wfqserve: not ready after 10s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to exit (killing it after
// 5s) and reaps it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}
