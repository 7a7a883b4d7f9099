package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRemoveStaleSocket: a socket left by a previous run is removed, a
// missing path is accepted, and a regular file at the -unix path is kept
// with an error naming it.
func TestRemoveStaleSocket(t *testing.T) {
	dir := t.TempDir()

	t.Run("stale-socket", func(t *testing.T) {
		path := filepath.Join(dir, "s.sock")
		lis, err := net.Listen("unix", path)
		if err != nil {
			t.Skipf("unix sockets unavailable: %v", err)
		}
		// Keep the file behind after Close, as a crashed daemon would.
		lis.(*net.UnixListener).SetUnlinkOnClose(false)
		lis.Close()
		if err := removeStaleSocket(path); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Lstat(path); !os.IsNotExist(err) {
			t.Fatalf("stale socket survived: %v", err)
		}
	})

	t.Run("regular-file", func(t *testing.T) {
		path := filepath.Join(dir, "notes.txt")
		if err := os.WriteFile(path, []byte("keep me"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := removeStaleSocket(path)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("err = %v, want an error naming %s", err, path)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "keep me" {
			t.Fatalf("regular file not kept: %q %v", b, err)
		}
	})

	t.Run("missing", func(t *testing.T) {
		if err := removeStaleSocket(filepath.Join(dir, "absent.sock")); err != nil {
			t.Fatal(err)
		}
	})
}
