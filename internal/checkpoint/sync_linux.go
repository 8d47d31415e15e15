//go:build linux

package checkpoint

import (
	"os"
	"syscall"
)

// datasync flushes f's data, and only the metadata needed to read it
// back, to stable storage.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}

// syncDir makes the directory's entries (a created or renamed slot file)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
