//go:build !linux

package checkpoint

import "os"

// datasync flushes f to stable storage; syscall has fdatasync on Linux
// only.
func datasync(f *os.File) error { return f.Sync() }

// syncDir makes the directory's entries durable where the OS lets a
// directory be synced; a refusal (Windows) is not an error of the save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	_ = d.Sync() // refused on some systems; nothing more can be done there
	return d.Close()
}
