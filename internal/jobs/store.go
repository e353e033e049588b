package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store persists job records so a restarted process can pick up where the
// previous one stopped. Implementations must be safe for concurrent use.
// Put must be atomic per record: a crash mid-Put leaves either the old
// record or the new one, never a torn file.
type Store interface {
	// Put writes (or replaces) one record.
	Put(rec *Record) error
	// Delete removes the record with the given ID; deleting a missing
	// record is not an error.
	Delete(id string) error
	// List returns every stored record, in no particular order.
	List() ([]*Record, error)
}

// MemStore is an in-memory Store: durable across Manager restarts within
// one process (tests), lost with the process.
type MemStore struct {
	mu   sync.Mutex
	recs map[string][]byte
}

func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[string][]byte)}
}

func (s *MemStore) Put(rec *Record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.recs[rec.ID] = blob
	s.mu.Unlock()
	return nil
}

func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	delete(s.recs, id)
	s.mu.Unlock()
	return nil
}

func (s *MemStore) List() ([]*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, 0, len(s.recs))
	for _, blob := range s.recs {
		rec := new(Record)
		if err := json.Unmarshal(blob, rec); err != nil {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// FileStore keeps one JSON file per job under a directory (the `incdb
// serve -jobdir` backing). Put writes a temp file, fsyncs it, renames it
// over the record and fsyncs the directory: a kill -9 mid-checkpoint
// leaves the previous intact record, and a Put that returned survives a
// machine crash.
type FileStore struct {
	dir string
	mu  sync.Mutex
}

// NewFileStore opens (creating if needed) the job directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// path maps a job ID to its file. IDs are manager-generated
// (job-<seq>-<hex>), but recovered stores may hold foreign names; anything
// that could escape the directory is rejected by Put.
func (s *FileStore) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

func validID(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/\\") && !strings.Contains(id, "..")
}

func (s *FileStore) Put(rec *Record) error {
	if !validID(rec.ID) {
		return fmt.Errorf("jobs: invalid job id %q", rec.ID)
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "."+rec.ID+".tmp-")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(blob)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), s.path(rec.ID)); err != nil {
		return err
	}
	return s.syncDir()
}

// syncDir flushes the directory entry a rename changed, so the record
// survives a machine crash and not only a process crash.
func (s *FileStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *FileStore) Delete(id string) error {
	if !validID(id) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List decodes every *.json record in the directory. Corrupt or foreign
// files are skipped — recovery must not be blocked by one bad record.
func (s *FileStore) List() ([]*Record, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []*Record
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		rec := new(Record)
		if err := json.Unmarshal(blob, rec); err != nil || rec.ID == "" {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}
