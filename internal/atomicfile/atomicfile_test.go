package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	for _, want := range []string{"first", "second, longer contents"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("file holds %q, want %q", got, want)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
}

// TestWriteFailureKeepsPreviousFile: a write that fails midway, after
// some bytes are already out, leaves the previous file byte-identical
// and no temporary file behind.
func TestWriteFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	old := []byte("trusted root v1\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte{0xee}, 4096)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the write error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("previous file changed to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.bin" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only state.bin", names)
	}
}

// TestWriteCreatesMissingFile: the first write of a state file works
// with no previous file present.
func TestWriteCreatesMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.json")
	if err := Write(path, func(w io.Writer) error {
		_, err := w.Write([]byte("{}\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "{}\n" {
		t.Fatalf("got %q, %v", got, err)
	}
}
