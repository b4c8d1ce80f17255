package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clint"
)

// buildLoad compiles lcfload into the test's scratch directory.
func buildLoad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lcfload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lcfload: %v\n%s", err, out)
	}
	return bin
}

// TestUsageErrorsExitTwo pins the exit-code contract: every invalid flag
// combination — including the flow-mode ones — exits 2 (usage error)
// before touching the network, never 1 (runtime failure).
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildLoad(t)
	cases := [][]string{
		{"-n", "0"},
		{"-load", "1.5"},
		{"-slots", "0"},
		{"-retries", "-1"},
		{"-pattern", "nonexistent"},
		{"-flows", "-1"},
		{"-flows", "10", "-flow-skew", "-0.5"},
		{"-flow-skew", "1.2"}, // flow-mode tuning without -flows
	}
	for _, args := range cases {
		err := exec.Command(bin, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfload %v: %v, want exit status 2", args, err)
		}
	}
}

// TestRetransmitIsTheFirstTransmission plays the switch to a one-port
// lcfload that sends one frame: hello, read the frame, NACK it, read the
// retransmit, echo it as delivered. The retransmit must be the first
// transmission byte for byte — same flow id or class label, same Stamp —
// whichever data frame the mode speaks.
func TestRetransmitIsTheFirstTransmission(t *testing.T) {
	bin := buildLoad(t)
	for _, mode := range []struct {
		name string
		args []string
		flen int
		seq  func(frame []byte) (uint64, uint64, error) // Seq, Stamp
	}{
		{"flow", []string{"-flows", "10"}, clint.FlowDataLen, func(frame []byte) (uint64, uint64, error) {
			d, err := clint.DecodeFlowData(frame)
			return d.Seq, d.Stamp, err
		}},
		{"class", []string{"-class-mix", "1,1"}, clint.ClassDataLen, func(frame []byte) (uint64, uint64, error) {
			d, err := clint.DecodeClassData(frame)
			return d.Seq, d.Stamp, err
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			verdict := make(chan error, 1)
			go func() {
				verdict <- func() error {
					conn, err := ln.Accept()
					if err != nil {
						return err
					}
					defer conn.Close()
					conn.SetDeadline(time.Now().Add(10 * time.Second))
					if _, err := conn.Write(clint.Grant{GntVal: true}.Encode()); err != nil {
						return err
					}
					first, again := make([]byte, mode.flen), make([]byte, mode.flen)
					if _, err := io.ReadFull(conn, first); err != nil {
						return err
					}
					seq, stamp, err := mode.seq(first)
					if err != nil {
						return err
					}
					if _, err := conn.Write(clint.Nack{Seq: seq}.Encode()); err != nil {
						return err
					}
					if _, err := io.ReadFull(conn, again); err != nil {
						return err
					}
					if !bytes.Equal(first, again) {
						return errors.New("retransmit differs from the first transmission")
					}
					_, err = conn.Write(clint.Data{Seq: seq, Stamp: stamp}.Encode())
					if err == nil {
						io.Copy(io.Discard, conn) // until lcfload, settled, hangs up
					}
					return err
				}()
			}()
			args := append([]string{"-addr", ln.Addr().String(), "-n", "1", "-load", "1", "-slots", "1",
				"-retry-backoff", "1ms", "-drain", "5s"}, mode.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			ln.Close() // an lcfload that never dialed must not leave Accept waiting
			if verr := <-verdict; verr != nil {
				t.Fatalf("switch side: %v\n%s", verr, out)
			}
			if err != nil || !bytes.Contains(out, []byte("delivered 1, nacked 1, retransmitted 1, dropped 0, unaccounted 0")) {
				t.Fatalf("lcfload: %v\n%s", err, out)
			}
		})
	}
}
