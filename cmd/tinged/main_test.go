package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the tinged binary: a child process started with
// TINGED_TEST_MAIN=1 runs main() over the arguments after "--", so the
// tests below drive the real flag parsing without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("TINGED_TEST_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"tinged"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tinged(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "TINGED_TEST_MAIN=1")
	return cmd
}

// TestRejectsOutOfRangeBounds: the shared registry and admission flags
// have one meaning in server and coordinator mode, so a value with no
// meaning is refused, naming the flag, before anything listens.
func TestRejectsOutOfRangeBounds(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-job-ttl", "0"}, "-job-ttl 0s: need a positive duration"},
		{[]string{"-job-ttl", "-1m"}, "-job-ttl -1m0s: need a positive duration"},
		{[]string{"-max-jobs", "0"}, "-max-jobs 0: need at least 1"},
		{[]string{"-max-running", "0"}, "-max-running 0: need at least 1"},
		{[]string{"-max-queued", "-1"}, "-max-queued -1: need at least 0"},
		{[]string{"-coordinator", "-workers", "http://127.0.0.1:1", "-max-jobs", "0"}, "-max-jobs 0: need at least 1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := tinged(ctx, append([]string{"-addr", "127.0.0.1:0"}, c.args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%v: exit %v, want 1\n%s", c.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Fatalf("%v: stderr does not say %q:\n%s", c.args, c.want, stderr.String())
		}
	}
}

// TestAcceptsNoQueue: -max-queued 0 (run one job, queue none) is a
// valid bound; the server starts and drains on SIGTERM.
func TestAcceptsNoQueue(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := tinged(ctx, "-addr", "127.0.0.1:0", "-max-queued", "0", "-job-ttl", "1s", "-max-jobs", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	var log strings.Builder
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if strings.Contains(sc.Text(), "msg=listening") {
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("tinged: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "shutdown complete") {
		t.Fatalf("no clean shutdown:\n%s", log.String())
	}
}
