// Package atomicfile replaces small state files crash-safely: a
// reader sees either the previous file or the new one, never a
// missing, truncated or half-written file, even if the process or the
// machine dies mid-write.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with whatever write produces. The bytes go to a
// temporary file in the same directory, which is fsynced, closed and
// renamed over path; the directory is then fsynced so the rename
// itself survives a crash. If write (or any step before the rename)
// fails, path is left untouched and the temporary file is removed.
// The new file has mode 0644.
func Write(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
