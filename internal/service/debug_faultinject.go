//go:build faultinject

package service

import (
	"encoding/json"
	"net/http"
	"time"

	"gpuscout/internal/faultinject"
)

// This file exists only under the `faultinject` build tag: production
// gpuscoutd binaries have no fault-arming surface at all. Chaos builds
// get a small debug API:
//
//	GET    /debug/faultinject        registered sites + currently armed faults
//	POST   /debug/faultinject        arm {"site","mode","delay_ms","skip_hits","times"}
//	DELETE /debug/faultinject        disarm ?site=..., or everything without it
func (s *Service) registerDebugHandlers(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/faultinject", func(w http.ResponseWriter, _ *http.Request) {
		armed := map[string]map[string]any{}
		for site, f := range faultinject.Armed() {
			armed[site] = map[string]any{
				"mode":      f.Mode.String(),
				"delay_ms":  f.Delay.Milliseconds(),
				"skip_hits": f.SkipHits,
				"times":     f.Times,
				"fired":     faultinject.Fired(site),
			}
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"sites": faultinject.Sites(),
			"armed": armed,
		})
	})
	mux.HandleFunc("POST /debug/faultinject", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Site     string `json:"site"`
			Mode     string `json:"mode"`
			DelayMS  int    `json:"delay_ms"`
			SkipHits int    `json:"skip_hits"`
			Times    int    `json:"times"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, "decode request: "+err.Error())
			return
		}
		mode, err := faultinject.ParseMode(req.Mode)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if _, err := faultinject.Arm(faultinject.Fault{
			Site:     req.Site,
			Mode:     mode,
			Delay:    time.Duration(req.DelayMS) * time.Millisecond,
			SkipHits: req.SkipHits,
			Times:    req.Times,
		}); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"armed": req.Site})
	})
	mux.HandleFunc("DELETE /debug/faultinject", func(w http.ResponseWriter, r *http.Request) {
		if site := r.URL.Query().Get("site"); site != "" {
			faultinject.Disarm(site)
			WriteJSON(w, http.StatusOK, map[string]string{"disarmed": site})
			return
		}
		faultinject.Reset()
		WriteJSON(w, http.StatusOK, map[string]string{"disarmed": "all"})
	})
}
