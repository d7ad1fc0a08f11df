package server

// Multi-tenant namespaces: one engine per view-set namespace, shared
// nothing. A namespace is loaded from a config directory at startup —
// one subdirectory per namespace holding its view definitions, base facts
// and engine options — and addressed by path (/v1/ns/{name}/...) or by the
// "namespace" request field. Engines never share storage, catalogs, plan
// caches or admission queues, so one tenant's overload or poisoned plan
// cannot touch another's.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/storage"
)

// DefaultNamespace is the namespace requests address when they name none.
const DefaultNamespace = "default"

// Config configures one namespace's engine. The zero
// value serves: equivalent-first strategy, frozen base, no admission
// control, unlimited budget.
type Config struct {
	// Strategy is the engine planning strategy ("equivalent-first",
	// "bucket", "minicon", "inverse-rules", "auto"; CLI aliases accepted).
	Strategy string `json:"strategy,omitempty"`
	// CacheSize bounds the engine plan LRU (default 128), and with it the
	// prepared handles /v1/exec resolves.
	CacheSize int `json:"cache_size,omitempty"`
	// LiveUpdates enables /v1/batch (insert batches with incremental view
	// maintenance).
	LiveUpdates bool `json:"live_updates,omitempty"`
	// MaxConcurrent and MaxQueue configure admission control (see
	// engine.Options); DeadlineMS bounds a queued request's wait.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	MaxQueue      int `json:"max_queue,omitempty"`
	// DeadlineMS, MaxResultRows, MaxDerivedTuples and MaxFixpointRounds are
	// the default per-request budget; request budgets override per field.
	DeadlineMS        int `json:"deadline_ms,omitempty"`
	MaxResultRows     int `json:"max_result_rows,omitempty"`
	MaxDerivedTuples  int `json:"max_derived_tuples,omitempty"`
	MaxFixpointRounds int `json:"max_fixpoint_rounds,omitempty"`
	// DataDir enables durable storage (snapshot + WAL) rooted at the given
	// directory; the engine recovers from it at startup and checkpoints on
	// Close. Relative paths resolve against the daemon's working directory.
	DataDir string `json:"data_dir,omitempty"`
	// SnapshotWALBytes is the WAL size that triggers a background
	// checkpoint (0 = 64 MiB default, negative = never).
	SnapshotWALBytes int64 `json:"snapshot_wal_bytes,omitempty"`
	// WALNoSync skips the per-batch fsync, trading crash durability of the
	// latest batches for update throughput.
	WALNoSync bool `json:"wal_no_sync,omitempty"`
	// Logf receives engine warnings (stale snapshots, failed background
	// checkpoints). Not settable from config.json; the daemon injects it.
	Logf func(format string, args ...any) `json:"-"`
}

// budget assembles the namespace's default per-request budget.
func (c Config) budget() engine.Budget {
	return engine.Budget{
		Deadline:          time.Duration(c.DeadlineMS) * time.Millisecond,
		MaxResultRows:     c.MaxResultRows,
		MaxDerivedTuples:  c.MaxDerivedTuples,
		MaxFixpointRounds: c.MaxFixpointRounds,
	}
}

// options assembles the engine options; engine.NewFromBase resolves the
// strategy name.
func (c Config) options() engine.Options {
	return engine.Options{
		Strategy:      engine.Strategy(c.Strategy),
		CacheSize:     c.CacheSize,
		LiveUpdates:   c.LiveUpdates,
		MaxConcurrent: c.MaxConcurrent,
		MaxQueue:      c.MaxQueue,

		DataDir:          c.DataDir,
		SnapshotWALBytes: c.SnapshotWALBytes,
		WALNoSync:        c.WALNoSync,
		Logf:             c.Logf,
	}
}

// Namespace is one tenant: an engine and its default budget.
type Namespace struct {
	// Name is the namespace's registry key and path segment.
	Name string
	// Engine answers this namespace's queries.
	Engine *engine.Engine
	// Budget is the namespace's default per-request budget (request budgets
	// override it field-wise).
	Budget engine.Budget
	// Live reports whether /v1/batch is accepted.
	Live bool
}

// NewNamespace materialises the views over base and builds a namespace
// serving them under the given config.
func NewNamespace(name string, base *storage.Database, views []*cq.Query, cfg Config) (*Namespace, error) {
	eng, err := engine.NewFromBase(base, views, cfg.options())
	if err != nil {
		return nil, fmt.Errorf("namespace %s: %w", name, err)
	}
	return &Namespace{Name: name, Engine: eng, Budget: cfg.budget(), Live: cfg.LiveUpdates}, nil
}

// Registry holds the namespaces a server routes to. Shared-nothing: every
// namespace owns its engine outright.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Namespace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Namespace)}
}

// Add registers a namespace; a duplicate name is an error.
func (r *Registry) Add(ns *Namespace) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[ns.Name]; ok {
		return fmt.Errorf("server: duplicate namespace %q", ns.Name)
	}
	r.m[ns.Name] = ns
	return nil
}

// Get resolves a namespace name ("" means DefaultNamespace).
func (r *Registry) Get(name string) (*Namespace, bool) {
	if name == "" {
		name = DefaultNamespace
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	ns, ok := r.m[name]
	return ns, ok
}

// Close closes every namespace engine: durable ones checkpoint their
// state and release their stores, memory-only ones no-op. Every engine is
// closed even when one fails; the first error wins.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, ns := range r.m {
		if err := ns.Engine.Close(); err != nil && first == nil {
			first = fmt.Errorf("namespace %s: %w", ns.Name, err)
		}
	}
	return first
}

// Names lists the registered namespaces, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Namespace-directory layout: <dir>/<name>/views.dl (required, one view
// definition per rule), <dir>/<name>/base.dl (optional ground facts),
// <dir>/<name>/config.json (optional Config).
const (
	viewsFile  = "views.dl"
	baseFile   = "base.dl"
	configFile = "config.json"
)

// DirOptions customizes LoadDirWith beyond what per-namespace config files
// express.
type DirOptions struct {
	// DataRoot roots durable storage: a namespace whose config.json does
	// not set data_dir persists under DataRoot/<name>. Empty leaves
	// namespaces memory-only unless their config says otherwise.
	DataRoot string
	// Logf receives engine warnings (stale snapshots, failed background
	// checkpoints) for every loaded namespace.
	Logf func(format string, args ...any)
}

// LoadDirWith builds a registry from a config directory: every
// subdirectory containing a views.dl becomes a namespace named after it,
// loaded under o. A directory with no loadable namespace is an error — a
// server with nothing to serve is a misconfiguration worth failing loudly
// on.
func LoadDirWith(dir string, o DirOptions) (*Registry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: config dir: %w", err)
	}
	reg := NewRegistry()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		nsDir := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(nsDir, viewsFile)); errors.Is(err, os.ErrNotExist) {
			continue
		}
		ns, err := loadNamespace(e.Name(), nsDir, o)
		if err != nil {
			return nil, err
		}
		if err := reg.Add(ns); err != nil {
			return nil, err
		}
	}
	if len(reg.Names()) == 0 {
		return nil, fmt.Errorf("server: no namespace under %s (want <name>/%s)", dir, viewsFile)
	}
	return reg, nil
}

// loadNamespace reads one namespace directory.
func loadNamespace(name, dir string, o DirOptions) (*Namespace, error) {
	viewsSrc, err := os.ReadFile(filepath.Join(dir, viewsFile))
	if err != nil {
		return nil, fmt.Errorf("namespace %s: %w", name, err)
	}
	views, err := cq.ParseViews(string(viewsSrc))
	if err != nil {
		return nil, fmt.Errorf("namespace %s: %s: %w", name, viewsFile, err)
	}

	base := storage.NewDatabase()
	if f, err := os.Open(filepath.Join(dir, baseFile)); err == nil {
		base, err = storage.ReadDatabase(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("namespace %s: %s: %w", name, baseFile, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("namespace %s: %w", name, err)
	}

	var cfg Config
	if data, err := os.ReadFile(filepath.Join(dir, configFile)); err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return nil, fmt.Errorf("namespace %s: %s: %w", name, configFile, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("namespace %s: %w", name, err)
	}
	if cfg.DataDir == "" && o.DataRoot != "" {
		cfg.DataDir = filepath.Join(o.DataRoot, name)
	}
	if cfg.Logf == nil {
		cfg.Logf = o.Logf
	}
	return NewNamespace(name, base, views, cfg)
}
