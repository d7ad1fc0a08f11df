// Package server is the network serving layer: an HTTP/JSON front-end
// wrapping engine.Engine, turning the in-process serving stack — prepared
// template plans, incremental view maintenance, budgets and admission
// control — into a daemon (cmd/aqvd).
//
// Endpoints (all request/response bodies JSON):
//
//	POST /v1/prepare   query text -> prepared handle (template fingerprint),
//	                   valid while the engine's plan cache holds the plan
//	POST /v1/exec      handle + args -> answers (the warm path: no parsing,
//	                   no planning, one compiled-plan execution)
//	POST /v1/query     one-shot query text -> answers
//	POST /v1/batch     mixed insert/delete batches through the IVM path
//	                   (live namespaces); deletions apply before insertions,
//	                   the whole batch atomically
//	GET  /v1/stats     engine counters, one or all namespaces
//	GET  /healthz      liveness (503 while draining)
//
// Every endpoint is also addressable per namespace as /v1/ns/{ns}/...; the
// bare forms take the namespace from the request body ("namespace" field,
// default "default").
//
// The governance layer maps onto HTTP faithfully: load-shed requests return
// 429 with a Retry-After of at least one second, deadline and cancellation
// trips 408, budget trips 422 with partial fixpoint stats in the error
// envelope, and panics 500 with the panic value but never the stack. The
// request context propagates into evaluation, so a dropped connection
// cancels the fixpoint it was paying for.
package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
)

// maxBodyBytes bounds request bodies (batches included); a longer body is
// refused with 413. It is a variable only so that tests can lower it.
var maxBodyBytes int64 = 64 << 20

// Server routes requests to namespaces. Build with New, serve the value
// returned by Handler, and call Drain before shutting the listener down.
type Server struct {
	reg      *Registry
	mux      *http.ServeMux
	draining atomic.Bool
	started  time.Time
}

// New builds a server over a namespace registry.
func New(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/ns/{ns}/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/ns/{ns}/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/exec", s.handleExec)
	s.mux.HandleFunc("POST /v1/ns/{ns}/exec", s.handleExec)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/ns/{ns}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/ns/{ns}/batch", s.handleBatch)
	return s
}

// Handler returns the root handler: the route mux behind the drain gate.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeErrorCode(w, http.StatusServiceUnavailable, CodeShuttingDown,
				"server is draining; retry against another instance")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Drain flips the server into shutdown mode: every new request — health
// checks included, so load balancers stop routing here — is refused with
// 503/shutting_down, while requests already executing run to completion
// (http.Server.Shutdown waits for them).
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// budgetSpec is the per-request budget override: every set field replaces
// the namespace default, unset fields inherit it.
type budgetSpec struct {
	DeadlineMS        int `json:"deadline_ms,omitempty"`
	MaxResultRows     int `json:"max_result_rows,omitempty"`
	MaxDerivedTuples  int `json:"max_derived_tuples,omitempty"`
	MaxFixpointRounds int `json:"max_fixpoint_rounds,omitempty"`
}

// merge overlays the spec on the namespace default.
func (b *budgetSpec) merge(def engine.Budget) engine.Budget {
	out := def
	if b == nil {
		return out
	}
	if b.DeadlineMS > 0 {
		out.Deadline = time.Duration(b.DeadlineMS) * time.Millisecond
	}
	if b.MaxResultRows > 0 {
		out.MaxResultRows = b.MaxResultRows
	}
	if b.MaxDerivedTuples > 0 {
		out.MaxDerivedTuples = b.MaxDerivedTuples
	}
	if b.MaxFixpointRounds > 0 {
		out.MaxFixpointRounds = b.MaxFixpointRounds
	}
	return out
}

// resolve picks the request's namespace: the {ns} path segment when the
// route has one, else the body field, else the default.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, bodyNS string) (*Namespace, bool) {
	name := r.PathValue("ns")
	if name == "" {
		name = bodyNS
	}
	ns, ok := s.reg.Get(name)
	if !ok {
		writeErrorCode(w, http.StatusNotFound, CodeUnknownNamespace, fmt.Sprintf("unknown namespace %q", name))
		return nil, false
	}
	return ns, true
}

// ---- /healthz ----

type healthResponse struct {
	Status     string   `json:"status"`
	Namespaces []string `json:"namespaces"`
	UptimeS    float64  `json:"uptime_s"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Namespaces: s.reg.Names(),
		UptimeS:    time.Since(s.started).Seconds(),
	})
}

// ---- /v1/prepare ----

type prepareRequest struct {
	Namespace string `json:"namespace,omitempty"`
	Query     string `json:"query"`
}

// prepareResponse returns the handle — the plan's template fingerprint —
// plus the plan's identity. Args
// is the binding extracted from the submitted query's own constants — the
// arguments under which exec reproduces the one-shot answer.
type prepareResponse struct {
	Handle    string `json:"handle"`
	NumParams int    `json:"num_params"`
	Args      Row    `json:"args"`
	Strategy  string `json:"strategy"`
	Chosen    string `json:"chosen"`
	Arity     int    `json:"arity"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	st := acquireWire()
	defer st.release()
	var req prepareRequest
	if err := st.decode(r, members{namespace: &req.Namespace, query: &req.Query}); err != nil {
		writeRequestError(w, err)
		return
	}
	ns, ok := s.resolve(w, r, req.Namespace)
	if !ok {
		return
	}
	q, err := cq.ParseQuery(req.Query)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeInvalidQuery, err.Error())
		return
	}
	pq, err := ns.Engine.Prepare(q)
	if err != nil {
		writeEngineError(w, err, http.StatusBadRequest, CodeInvalidQuery)
		return
	}
	plan := pq.Plan()
	writeJSON(w, http.StatusOK, prepareResponse{
		Handle:    plan.Fingerprint,
		NumParams: pq.NumParams(),
		Args:      Row(pq.Args()),
		Strategy:  string(plan.Strategy),
		Chosen:    string(plan.Chosen),
		Arity:     plan.Arity,
	})
}

// ---- /v1/exec ----

// handleExec takes {"namespace", "handle", "args", "budget"}. The body is
// decoded into locals, not a struct: handle and args alias the pooled
// wireState, so the handle lookup costs no string.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	st := acquireWire()
	defer st.release()
	var (
		namespace string
		handle    []byte
		args      Row
		budget    *budgetSpec
	)
	if err := st.decode(r, members{namespace: &namespace, handle: &handle, args: &args, budget: &budget}); err != nil {
		writeRequestError(w, err)
		return
	}
	ns, ok := s.resolve(w, r, namespace)
	if !ok {
		return
	}
	pq, ok := ns.Engine.Prepared(handle)
	if !ok {
		writeErrorCode(w, http.StatusNotFound, CodeUnknownHandle,
			fmt.Sprintf("unknown or evicted handle %q; re-prepare", handle))
		return
	}
	answers, err := pq.ExecBudget(r.Context(), budget.merge(ns.Budget), args...)
	if err != nil {
		writeEngineError(w, err, http.StatusInternalServerError, engine.CodeInternal)
		return
	}
	st.writeAnswers(w, answers)
	answers.Release()
}

// ---- /v1/query ----

type queryRequest struct {
	Namespace string      `json:"namespace,omitempty"`
	Query     string      `json:"query"`
	Budget    *budgetSpec `json:"budget,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := acquireWire()
	defer st.release()
	var req queryRequest
	if err := st.decode(r, members{namespace: &req.Namespace, query: &req.Query, budget: &req.Budget}); err != nil {
		writeRequestError(w, err)
		return
	}
	ns, ok := s.resolve(w, r, req.Namespace)
	if !ok {
		return
	}
	q, err := cq.ParseQuery(req.Query)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeInvalidQuery, err.Error())
		return
	}
	answers, err := ns.Engine.AnswerBudget(r.Context(), q, req.Budget.merge(ns.Budget))
	if err != nil {
		writeEngineError(w, err, http.StatusBadRequest, CodeInvalidQuery)
		return
	}
	st.writeAnswers(w, answers)
	answers.Release()
}

// ---- /v1/batch ----

type batchResponse struct {
	Applied    bool `json:"applied"`
	Predicates int  `json:"predicates"`
	Tuples     int  `json:"tuples"`
	// Deleted counts the retraction tuples the batch submitted (absent
	// tuples are no-ops on the engine side, so this is the request count,
	// not the count of tuples actually removed).
	Deleted int `json:"deleted,omitempty"`
}

// handleBatch takes {"namespace", "updates", "deletes", "budget"}: inserts
// under "updates", deletions under "deletes", either or both, which the
// engine applies as a single atomic unit — deletions first, then
// insertions. The maps and their rows live in the pooled wireState: the
// engine keeps none of them past the call.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := acquireWire()
	defer st.release()
	var (
		namespace string
		budget    *budgetSpec
	)
	if err := st.decode(r, members{namespace: &namespace, updates: &st.updates, deletes: &st.deletes, budget: &budget}); err != nil {
		writeRequestError(w, err)
		return
	}
	ns, ok := s.resolve(w, r, namespace)
	if !ok {
		return
	}
	updates, deletes := st.updates, st.deletes
	if len(updates) == 0 && len(deletes) == 0 {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "batch has no updates or deletes")
		return
	}
	// The ack counts each predicate the batch names once, on either side.
	preds, tuples, deleted := len(updates), 0, 0
	for _, rows := range updates {
		tuples += len(rows)
	}
	for pred, rows := range deletes {
		deleted += len(rows)
		if _, ok := updates[pred]; !ok {
			preds++
		}
	}
	if err := ns.Engine.ApplyUpdateBudget(r.Context(), updates, deletes, budget.merge(ns.Budget)); err != nil {
		writeEngineError(w, err, http.StatusBadRequest, CodeBadRequest)
		return
	}
	st.writeBatchAck(w, batchResponse{Applied: true, Predicates: preds, Tuples: tuples, Deleted: deleted})
}

// ---- /v1/stats ----

// namespaceStats is one namespace's counters on the wire.
type namespaceStats struct {
	Namespace string       `json:"namespace"`
	Live      bool         `json:"live"`
	Engine    engine.Stats `json:"engine"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ns")
	if name == "" {
		name = r.URL.Query().Get("ns")
	}
	if name != "" {
		ns, ok := s.reg.Get(name)
		if !ok {
			writeErrorCode(w, http.StatusNotFound, CodeUnknownNamespace, fmt.Sprintf("unknown namespace %q", name))
			return
		}
		writeJSON(w, http.StatusOK, statsOf(ns))
		return
	}
	all := make(map[string]namespaceStats)
	for _, n := range s.reg.Names() {
		ns, _ := s.reg.Get(n)
		all[n] = statsOf(ns)
	}
	writeJSON(w, http.StatusOK, all)
}

func statsOf(ns *Namespace) namespaceStats {
	return namespaceStats{
		Namespace: ns.Name,
		Live:      ns.Live,
		Engine:    ns.Engine.Stats(),
	}
}
