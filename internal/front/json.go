package front

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// WriteJSON answers with status and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status is sent; a failed body write has no one to report to
}

// WriteError answers with {"error": msg, "requestId": ...}, so a client can
// quote the ID the server's log line carries.
func WriteError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	body := map[string]string{"error": msg}
	if info, ok := r.Context().Value(infoKey{}).(*requestInfo); ok {
		body["requestId"] = info.id
	}
	WriteJSON(w, status, body)
}

// Decode reads r's JSON body into v, rejecting unknown fields and bodies
// over limit bytes. On failure it answers 400 or 413 and returns false.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, r, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

// Float is a float64 whose JSON form tolerates non-finite values, which
// duplicate-heavy data without distinct mode can produce: +Inf, -Inf and
// NaN travel as the strings "+Inf", "-Inf" and "NaN" instead of failing
// the whole response.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting a number or one of
// the non-finite strings.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(f))
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "+Inf", "Inf":
		*f = Float(math.Inf(1))
	case "-Inf":
		*f = Float(math.Inf(-1))
	case "NaN":
		*f = Float(math.NaN())
	default:
		return fmt.Errorf("unknown float string %q", s)
	}
	return nil
}

// Floats converts vs for encoding.
func Floats(vs []float64) []Float {
	out := make([]Float, len(vs))
	for i, v := range vs {
		out[i] = Float(v)
	}
	return out
}

// Float64s converts decoded values back.
func Float64s(fs []Float) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = float64(f)
	}
	return out
}

// Score modes, the values of ?mode= on /v1/score: full (the default)
// answers exactly; pruned answers exactly except for queries the LOF bounds
// certify as 1; coreset answers from the sensitivity-sampled coreset model;
// degraded accepts the coreset's answer when the exact one is unavailable.
const (
	ModeFull     = "full"
	ModePruned   = "pruned"
	ModeCoreset  = "coreset"
	ModeDegraded = "degraded"
)

// Modes lists the score modes in exposition order.
var Modes = []string{ModeFull, ModePruned, ModeCoreset, ModeDegraded}

// ScoreMode returns r's requested score mode, ModeFull when none is given.
// An unknown mode is answered 400 and reported as ok == false.
func ScoreMode(w http.ResponseWriter, r *http.Request) (mode string, ok bool) {
	switch mode = r.URL.Query().Get("mode"); mode {
	case "":
		return ModeFull, true
	case ModeFull, ModePruned, ModeCoreset, ModeDegraded:
		return mode, true
	}
	WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("unknown mode %q; valid modes are %q, %q, %q and %q",
		mode, ModeFull, ModePruned, ModeCoreset, ModeDegraded))
	return "", false
}

// ScoreRequest is the body of a score request on either tier.
type ScoreRequest struct {
	Queries [][]float64 `json:"queries"`
	// Workers, when positive, overrides lofserve's scoring pool width for
	// this request only (1 = sequential); lofcoord accepts and ignores it.
	Workers int `json:"workers,omitempty"`
}

// ScoreResponse is the body of a score response on either tier.
type ScoreResponse struct {
	Scores []Float `json:"scores"`
	// Mode is the mode that served, omitted for exact answers — including
	// approximate requests that fell back to the exact model.
	Mode string `json:"mode,omitempty"`
	// Certified counts the pruned-mode queries answered from the bound
	// alone; present only in pruned mode.
	Certified int `json:"certified,omitempty"`
}
