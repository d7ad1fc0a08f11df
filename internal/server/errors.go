package server

// The error surface of the wire protocol. Every non-2xx response carries a
// machine-readable envelope:
//
//	{"error": {"code": "...", "message": "...",
//	           "retry_after_s": N, "partial_stats": {...}}}
//
// Codes for engine-typed errors come from engine.ErrorCode and are stable
// wire contract; the server adds its own codes for boundary conditions the
// engine never sees (unknown namespace, bad JSON, draining). The HTTP
// status mapping is:
//
//	overloaded        429  (Retry-After header, integer seconds, >= 1)
//	canceled          408  (deadline expired or client went away)
//	budget_exceeded   422  (partial fixpoint stats in the envelope)
//	internal          500  (panic value only — never the stack)
//	arity_mismatch    400
//	not_live          409
//	invalid_query     400
//	unknown_namespace 404
//	unknown_handle    404
//	bad_request       400  (413 when the body exceeds maxBodyBytes)
//	shutting_down     503

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
)

// Server-side error codes (engine codes live in internal/engine).
const (
	// CodeInvalidQuery: the query text failed to parse or validate, or the
	// rewriting search rejected it.
	CodeInvalidQuery = "invalid_query"
	// CodeUnknownNamespace: the request addressed a namespace the registry
	// does not hold.
	CodeUnknownNamespace = "unknown_namespace"
	// CodeUnknownHandle: the prepared-query handle names no plan the
	// namespace's engine caches — never prepared, or evicted from the plan
	// LRU since; the client should re-prepare.
	CodeUnknownHandle = "unknown_handle"
	// CodeBadRequest: malformed JSON, a member of the wrong type, a missing
	// required field, or a body over the size limit.
	CodeBadRequest = "bad_request"
	// CodeShuttingDown: the server is draining and refuses new requests.
	CodeShuttingDown = "shutting_down"
)

// ErrorEnvelope is the body of every error response.
type ErrorEnvelope struct {
	// Code is the stable machine-readable error code.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RetryAfterS mirrors the Retry-After header on 429 responses, integer
	// seconds, always >= 1.
	RetryAfterS int `json:"retry_after_s,omitempty"`
	// PartialStats carries the fixpoint progress at the moment a budget or
	// deadline tripped, when the engine recorded any.
	PartialStats *PartialStats `json:"partial_stats,omitempty"`
}

// PartialStats is the wire form of datalog.FixpointStats.
type PartialStats struct {
	Iterations int `json:"iterations"`
	Derived    int `json:"derived"`
}

// errorBody wraps the envelope under the "error" key.
type errorBody struct {
	Error ErrorEnvelope `json:"error"`
}

// retryAfterSeconds converts a retry hint to HTTP integer seconds, rounding
// up and flooring at 1 — Retry-After: 0 tells every shed client to retry
// immediately, which is exactly the storm shedding exists to prevent.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeErrorCode writes an envelope for a server-side condition.
func writeErrorCode(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorBody{Error: ErrorEnvelope{Code: code, Message: message}})
}

// writeEngineError maps a typed engine error onto its status, envelope and
// headers. Errors without an engine code fall back to the given code and
// status (the caller knows whether it was parsing a query or executing one).
func writeEngineError(w http.ResponseWriter, err error, fallbackStatus int, fallbackCode string) {
	env := ErrorEnvelope{Code: engine.ErrorCode(err), Message: err.Error()}
	var qe *engine.QueryError
	if errors.As(err, &qe) && (qe.Stats.Iterations > 0 || qe.Stats.Derived > 0) {
		env.PartialStats = &PartialStats{Iterations: qe.Stats.Iterations, Derived: qe.Stats.Derived}
	}
	var status int
	switch env.Code {
	case engine.CodeOverloaded:
		status = http.StatusTooManyRequests
		retry := engine.MinRetryAfter
		var oe *engine.OverloadedError
		if errors.As(err, &oe) && oe.RetryAfter > retry {
			retry = oe.RetryAfter
		}
		env.RetryAfterS = retryAfterSeconds(retry)
		w.Header().Set("Retry-After", strconv.Itoa(env.RetryAfterS))
	case engine.CodeCanceled:
		status = http.StatusRequestTimeout
	case engine.CodeBudgetExceeded:
		status = http.StatusUnprocessableEntity
	case engine.CodeInternal:
		// The envelope message is InternalError.Error() — the panic value,
		// never the stack (that stays in the server log).
		status = http.StatusInternalServerError
	case engine.CodeArityMismatch:
		status = http.StatusBadRequest
	case engine.CodeNotLive:
		status = http.StatusConflict
	default:
		status = fallbackStatus
		env.Code = fallbackCode
	}
	writeJSON(w, status, errorBody{Error: env})
}
