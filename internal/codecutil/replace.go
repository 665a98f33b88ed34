package codecutil

import (
	"os"
	"path/filepath"
)

// ReplaceFile writes data to path via a temp file and renames it into place,
// so readers only ever observe complete content. durable adds the fsyncs
// (file, then directory); without them an OS crash may lose the newest
// version — for advisory data written on a hot path, skipping the two fsyncs
// is the point.
func ReplaceFile(path string, data []byte, durable bool) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if durable {
		syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir best-effort fsyncs a directory so a rename within it is durable
// before we rely on it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
