package supervise

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrNoCheckpoint is returned by Store.Load when no valid checkpoint exists.
var ErrNoCheckpoint = errors.New("resilience: no valid checkpoint")

// Store is a rolling two-slot checkpoint store. Save always writes the slot
// not holding the newest valid checkpoint, so one corrupt or torn write can
// never destroy the last good restart point. Load returns the newest slot
// that decodes cleanly, together with the number of corrupt slots it had to
// skip — the recovery path for a damaged checkpoint is simply "use the
// previous one". Where the two slots live is the constructor's business:
// NewMemStore keeps them in memory, NewFileStore in a directory.
type Store struct {
	mu    sync.Mutex
	read  func(slot int) []byte // nil = slot absent
	write func(slot int, data []byte) error
	last  int // slot of the most recent Save
	saved bool
}

// newStore wraps a slot pair. If the slots already hold checkpoints, the next
// Save will overwrite the older one, and Load resumes from the newer — this
// is the restart path.
func newStore(read func(slot int) []byte, write func(slot int, data []byte) error) *Store {
	s := &Store{read: read, write: write}
	best := uint64(0)
	for slot := 0; slot < 2; slot++ {
		if ck, err := DecodeCheckpoint(read(slot)); err == nil && (!s.saved || ck.Step >= best) {
			best, s.last, s.saved = ck.Step, slot, true
		}
	}
	return s
}

// NewMemStore returns an empty in-memory checkpoint store, used by tests and
// as cmd/seamsim's default when no directory is configured (checkpoints then
// survive rollbacks within the process but not a process restart).
func NewMemStore() *Store {
	var slots [2][]byte
	return newStore(
		func(slot int) []byte { return slots[slot] },
		func(slot int, data []byte) error {
			slots[slot] = append([]byte(nil), data...)
			return nil
		})
}

// NewFileStore opens (creating if needed) a checkpoint directory holding the
// two slots as checkpoint-0.sfck and checkpoint-1.sfck. Writes go through a
// temporary file and an atomic rename, so a crash mid-save leaves at worst a
// stale temp file, never a half-written slot.
func NewFileStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}
	slotPath := func(slot int) string {
		return filepath.Join(dir, fmt.Sprintf("checkpoint-%d.sfck", slot))
	}
	return newStore(
		func(slot int) []byte {
			data, err := os.ReadFile(slotPath(slot))
			if err != nil {
				return nil
			}
			return data
		},
		func(slot int, data []byte) error {
			tmp := slotPath(slot) + ".tmp"
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return fmt.Errorf("resilience: %w", err)
			}
			if err := os.Rename(tmp, slotPath(slot)); err != nil {
				return fmt.Errorf("resilience: %w", err)
			}
			return nil
		}), nil
}

// Save persists an encoded checkpoint into the rolling slot.
func (s *Store) Save(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := 0
	if s.saved {
		slot = 1 - s.last
	}
	if err := s.write(slot, data); err != nil {
		return err
	}
	s.last, s.saved = slot, true
	return nil
}

// Load returns the newest valid checkpoint and how many corrupt slots were
// skipped to find it. It returns ErrNoCheckpoint when no slot holds a valid
// checkpoint.
func (s *Store) Load() (ck *Checkpoint, corruptSkipped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for slot := 0; slot < 2; slot++ {
		data := s.read(slot)
		if data == nil {
			continue
		}
		c, derr := DecodeCheckpoint(data)
		if derr != nil {
			corruptSkipped++
			continue
		}
		if ck == nil || c.Step > ck.Step {
			ck = c
		}
	}
	if ck == nil {
		return nil, corruptSkipped, ErrNoCheckpoint
	}
	return ck, corruptSkipped, nil
}

// Corrupt flips one bit of the most recently saved slot (fault injection).
// It fails when nothing has been saved.
func (s *Store) Corrupt(bit int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.saved {
		return fmt.Errorf("resilience: nothing saved yet")
	}
	data := s.read(s.last)
	if len(data) == 0 {
		return fmt.Errorf("resilience: empty slot")
	}
	bit %= 8 * len(data)
	if bit < 0 {
		bit += 8 * len(data)
	}
	data[bit/8] ^= 1 << (bit % 8)
	return s.write(s.last, data)
}
