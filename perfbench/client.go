package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP connection to the daemon: requests on it
// are sequential, as from a single client.
type httpConn struct {
	c    *http.Client
	base string
}

func newHTTPConn(base string) *httpConn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &httpConn{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (h *httpConn) close() { h.c.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx response; any other
// status is an error.
func (h *httpConn) do(method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (h *httpConn) get(path string) ([]byte, error) { return h.do("GET", path, "", nil) }

func (h *httpConn) post(path string) error {
	_, err := h.do("POST", path, "", nil)
	return err
}

func (h *httpConn) scrape() (promSample, error) {
	b, err := h.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

func estimatePath(u uint64) string { return "/estimate?user=" + strconv.FormatUint(u, 10) }

func parseEstimate(b []byte) (float64, error) {
	var r struct {
		Estimate float64 `json:"estimate"`
	}
	err := json.Unmarshal(b, &r)
	return r.Estimate, err
}

func parseTotal(b []byte) (float64, error) {
	var r struct {
		Total float64 `json:"total"`
	}
	err := json.Unmarshal(b, &r)
	return r.Total, err
}

type topEntry struct {
	User     uint64  `json:"user"`
	Estimate float64 `json:"estimate"`
}

func parseTopK(b []byte) ([]topEntry, error) {
	var r struct {
		Top []topEntry `json:"top"`
	}
	err := json.Unmarshal(b, &r)
	return r.Top, err
}
