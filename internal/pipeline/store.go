package pipeline

import (
	"container/list"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// StoreVersion versions every on-disk artifact. Bump it whenever an
// artifact's meaning changes: a key component is added or removed, a
// payload field changes semantics, or a stage's algorithm changes in a
// way old artifacts would silently misrepresent. Bumping the version
// retires the whole v<N> directory; old artifacts are simply never read
// again.
const StoreVersion = 1

// memLRU is the in-memory artifact tier: completed task outputs keyed by
// content hash, bounded by entry count. Eviction is safe — a recompute of
// any evicted key produces a bit-identical value.
type memLRU struct {
	cap int
	ll  *list.List // front = most recent
	m   map[Key]*list.Element
}

type memNode struct {
	key Key
	val any
}

// memEntries bounds a Pipeline's in-memory tier. Campaign outputs are
// tiny; the large artifacts (measurements, search results) number in the
// dozens per run.
const memEntries = 8192

func newMemLRU(capacity int) *memLRU {
	return &memLRU{cap: capacity, ll: list.New(), m: make(map[Key]*list.Element)}
}

func (t *memLRU) get(k Key) (any, bool) {
	e, ok := t.m[k]
	if !ok {
		return nil, false
	}
	t.ll.MoveToFront(e)
	return e.Value.(*memNode).val, true
}

func (t *memLRU) add(k Key, v any) {
	if e, ok := t.m[k]; ok {
		t.ll.MoveToFront(e)
		e.Value.(*memNode).val = v
		return
	}
	t.m[k] = t.ll.PushFront(&memNode{key: k, val: v})
	for t.ll.Len() > t.cap {
		back := t.ll.Back()
		t.ll.Remove(back)
		delete(t.m, back.Value.(*memNode).key)
	}
}

func (t *memLRU) len() int { return t.ll.Len() }

// DiskStore is the persistent artifact tier: hash-named JSON files under
// <root>/v<StoreVersion>/<kind>/<hex>.json. Writes are atomic (temp file
// + rename) and best-effort — a disk failure degrades to a cache miss,
// never to a wrong result.
type DiskStore struct {
	dir string
}

// NewDiskStore opens (creating if needed) the versioned artifact
// directory under root. Sectional artifact kinds carry their own schema
// version (SectionSchema); entries written under a different section
// schema are pruned here, on open, so a schema bump invalidates exactly
// the sectional tiers and leaves whole-program artifacts untouched.
func NewDiskStore(root string) (*DiskStore, error) {
	dir := filepath.Join(root, fmt.Sprintf("v%d", StoreVersion))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: disk store: %w", err)
	}
	if err := pruneStaleSectional(dir); err != nil {
		return nil, fmt.Errorf("pipeline: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// sectionalMarker names the file recording which section schema the
// store's sectional entries were written under.
const sectionalMarker = "sectional.schema"

// pruneStaleSectional retires sectional artifact directories written
// under a different (or unknown) section schema and stamps the current
// one. Whole-program kinds are never touched.
func pruneStaleSectional(dir string) error {
	marker := filepath.Join(dir, sectionalMarker)
	cur, err := os.ReadFile(marker)
	if err == nil && string(cur) == SectionSchema {
		return nil
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() && sectionalKind(e.Name()) {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(marker, []byte(SectionSchema), 0o644)
}

// Dir returns the versioned artifact directory.
func (s *DiskStore) Dir() string { return s.dir }

// Keys enumerates the stored artifact keys of one kind in sorted (hex)
// order. Unparseable file names — temp files from in-flight atomic
// writes, stray editor droppings — are skipped, so a concurrent writer
// can never make enumeration fail. The campaign server uses this to
// recover persisted job envelopes after a restart.
func (s *DiskStore) Keys(kind string) []Key {
	entries, err := os.ReadDir(filepath.Join(s.dir, kind))
	if err != nil {
		return nil
	}
	var keys []Key
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".json"))
		if err != nil || len(raw) != len(Key{}) {
			continue
		}
		var k Key
		copy(k[:], raw)
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Hex() < keys[j].Hex() })
	return keys
}

func (s *DiskStore) path(kind string, k Key) string {
	return filepath.Join(s.dir, kind, k.Hex()+".json")
}

// Get returns the stored artifact bytes for (kind, key), if present.
func (s *DiskStore) Get(kind string, k Key) ([]byte, bool) {
	data, err := os.ReadFile(s.path(kind, k))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put stores artifact bytes for (kind, key) atomically. Errors are
// returned for accounting but leave the store consistent: either the old
// state or the complete new artifact is visible, never a torn write.
func (s *DiskStore) Put(kind string, k Key, data []byte) error {
	dir := filepath.Join(s.dir, kind)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+k.Short()+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.path(kind, k))
}

// envelope wraps every persisted payload with enough self-description to
// reject artifacts written by a different store version or task kind.
type envelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// EncodeArtifact wraps a payload in the versioned store envelope. It is
// the exported form of the task-persistence codec, for packages (the
// campaign server's job envelopes) that store their own artifact kinds
// in a DiskStore without going through the Task machinery.
func EncodeArtifact(kind string, v any) ([]byte, error) {
	return encodeArtifact(kind, v)
}

// DecodeArtifact unwraps an envelope written by EncodeArtifact,
// verifying store version and kind.
func DecodeArtifact(kind string, data []byte, out any) error {
	return decodeArtifact(kind, data, out)
}

// encodeArtifact wraps v in the versioned envelope.
func encodeArtifact(kind string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{V: StoreVersion, Kind: kind, Data: data})
}

// decodeArtifact unwraps an envelope into out, verifying version and kind.
func decodeArtifact(kind string, data []byte, out any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	if env.V != StoreVersion {
		return fmt.Errorf("pipeline: artifact version %d, want %d", env.V, StoreVersion)
	}
	if env.Kind != kind {
		return fmt.Errorf("pipeline: artifact kind %q, want %q", env.Kind, kind)
	}
	return json.Unmarshal(env.Data, out)
}

// sectionalEnvelope extends the artifact envelope with the section
// schema, so a sectional artifact that somehow survives the open-time
// prune (e.g. copied in by hand) still fails decoding under a different
// schema and degrades to a cache miss.
type sectionalEnvelope struct {
	V      int             `json:"v"`
	Kind   string          `json:"kind"`
	Schema string          `json:"schema"`
	Data   json.RawMessage `json:"data"`
}

// encodeSectional wraps a sectional payload with store version, kind,
// and section schema.
func encodeSectional(kind string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sectionalEnvelope{V: StoreVersion, Kind: kind, Schema: SectionSchema, Data: data})
}

// decodeSectional unwraps a sectional envelope, verifying version, kind,
// and section schema.
func decodeSectional(kind string, data []byte, out any) error {
	var env sectionalEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	if env.V != StoreVersion {
		return fmt.Errorf("pipeline: artifact version %d, want %d", env.V, StoreVersion)
	}
	if env.Kind != kind {
		return fmt.Errorf("pipeline: artifact kind %q, want %q", env.Kind, kind)
	}
	if env.Schema != SectionSchema {
		return fmt.Errorf("pipeline: sectional artifact schema %q, want %q", env.Schema, SectionSchema)
	}
	return json.Unmarshal(env.Data, out)
}

// StoreStats is the cumulative traffic of both artifact tiers.
type StoreStats struct {
	MemHits    int64 `json:"mem_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Runs       int64 `json:"runs"` // tasks actually executed
	DiskWrites int64 `json:"disk_writes"`
	DiskErrors int64 `json:"disk_errors"` // best-effort writes or decodes that failed
	MemEntries int   `json:"mem_entries"`
}

// String renders the one-line store summary printed by -metrics.
func (s StoreStats) String() string {
	return fmt.Sprintf("artifact store: %d mem hit, %d disk hit, %d run, %d disk write (%d resident, %d disk errors)",
		s.MemHits, s.DiskHits, s.Runs, s.DiskWrites, s.MemEntries, s.DiskErrors)
}
