package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// TestHandlerHTTPHygiene pins the telemetry plane's request hygiene in
// one table: every endpoint sets an explicit Content-Type, answers
// non-GET methods with a 405 that names the allowed set, and rejects
// malformed query parameters with a 400 instead of a confusing 503/404.
func TestHandlerHTTPHygiene(t *testing.T) {
	h := NewHandler(HandlerConfig{
		Registry: NewRegistry(),
		Snapshot: func() []byte { return []byte(`{"epochs":1}`) },
		Flight: func(trace string) []byte {
			return []byte(`{"trace":"` + trace + `"}`)
		},
		HealthPlane: func() []byte { return []byte(`{"epoch":4}`) },
		Timeseries: func(series string, tier int) []byte {
			if series == "channel.0.prr" && tier == 0 {
				return []byte(`{"series":"channel.0.prr"}`)
			}
			if series == "" {
				return []byte(`{"series":[]}`)
			}
			return nil // unknown series/tier
		},
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		wantCode   int
		wantCType  string // substring; "" skips the check
		wantInBody string // substring; "" skips the check
	}{
		{"metrics ok", "GET", "/metrics", 200, "text/plain; version=0.0.4", ""},
		{"metrics post", "POST", "/metrics", 405, "", "method not allowed"},
		{"healthz ok", "GET", "/healthz", 200, "text/plain", "ok"},
		{"healthz delete", "DELETE", "/healthz", 405, "", ""},
		{"snapshot ok", "GET", "/snapshot", 200, "application/json", `{"epochs":1}`},
		{"snapshot put", "PUT", "/snapshot", 405, "", ""},
		{"flight listing", "GET", "/flight", 200, "application/json", `{"trace":""}`},
		{"flight trace ok", "GET", "/flight?trace=00000000deadbeef", 200, "application/json", "deadbeef"},
		{"flight trace 0x", "GET", "/flight?trace=0x00000000DEADBEEF", 200, "application/json", "DEADBEEF"},
		{"flight trace short", "GET", "/flight?trace=beef", 400, "", "malformed trace"},
		{"flight trace long", "GET", "/flight?trace=00000000deadbeef0", 400, "", "malformed trace"},
		{"flight trace nonhex", "GET", "/flight?trace=00000000deadbeeg", 400, "", "malformed trace"},
		{"flight post", "POST", "/flight", 405, "", ""},
		{"health ok", "GET", "/health", 200, "application/json", `{"epoch":4}`},
		{"health post", "POST", "/health", 405, "", ""},
		{"timeseries listing", "GET", "/timeseries", 200, "application/json", `{"series":[]}`},
		{"timeseries ok", "GET", "/timeseries?series=channel.0.prr", 200, "application/json", "channel.0.prr"},
		{"timeseries unknown", "GET", "/timeseries?series=nope", 404, "", "unknown series"},
		{"timeseries bad tier", "GET", "/timeseries?series=channel.0.prr&tier=x", 400, "", "malformed tier"},
		{"timeseries neg tier", "GET", "/timeseries?series=channel.0.prr&tier=-1", 400, "", "malformed tier"},
		{"timeseries deep tier", "GET", "/timeseries?series=channel.0.prr&tier=9", 404, "", "unknown series"},
		{"timeseries post", "POST", "/timeseries", 405, "", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.wantCode {
				t.Fatalf("%s %s: code %d, want %d (body %q)",
					c.method, c.path, resp.StatusCode, c.wantCode, body)
			}
			if resp.StatusCode == 405 {
				if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
					t.Errorf("405 without a useful Allow header: %q", allow)
				}
			}
			if c.wantCType != "" && !strings.Contains(resp.Header.Get("Content-Type"), c.wantCType) {
				t.Errorf("Content-Type %q, want substring %q", resp.Header.Get("Content-Type"), c.wantCType)
			}
			if ct := resp.Header.Get("Content-Type"); ct == "" {
				t.Error("response without an explicit Content-Type")
			}
			if c.wantInBody != "" && !strings.Contains(string(body), c.wantInBody) {
				t.Errorf("body %q missing %q", body, c.wantInBody)
			}
		})
	}
}

// TestHandlerNilCallbacks pins the degraded modes: endpoints whose
// backing plane is absent answer 503, never panic.
func TestHandlerNilCallbacks(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{}))
	defer srv.Close()
	for _, path := range []string{"/snapshot", "/flight", "/health", "/timeseries", "/timeseries?series=x"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Errorf("GET %s with no backing plane: code %d, want 503", path, resp.StatusCode)
		}
	}
	// A nil Registry still serves an (empty) exposition, and /healthz
	// always answers ok.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: code %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestValidTrace pins the /flight ?trace= check: an optional 0x prefix,
// then exactly 16 hex digits (flight.ParseTrace's grammar). A
// well-formed ID reaches the Flight callback verbatim; a malformed one is
// answered with a 400 and never reaches it; an empty one is the listing.
func TestValidTrace(t *testing.T) {
	var got []string
	h := NewHandler(HandlerConfig{
		Registry: NewRegistry(),
		Flight: func(trace string) []byte {
			got = append(got, trace)
			return []byte(`{}`)
		},
	})
	serve := func(trace string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/flight?trace="+url.QueryEscape(trace), nil))
		return rec.Code
	}
	good := []string{
		"0000000000000000", "ffffffffffffffff", "00000000DEADBEEF",
		"0x0123456789abcdef", "0XAAAAAAAAAAAAAAAA",
	}
	bad := []string{
		"0x", "abc", "0xabc", "00000000deadbee", "00000000deadbeef0",
		"zz000000deadbeef", "0x0x000000000000", " 000000000000000", "0000000000000000 ",
	}
	for _, s := range good {
		got = nil
		if code := serve(s); code != http.StatusOK || len(got) != 1 || got[0] != s {
			t.Errorf("trace %q: code %d, callback saw %q; want 200 and [%q]", s, code, got, s)
		}
	}
	for _, s := range bad {
		got = nil
		if code := serve(s); code != http.StatusBadRequest || got != nil {
			t.Errorf("trace %q: code %d, callback saw %q; want 400 and no call", s, code, got)
		}
	}
	got = nil
	if code := serve(""); code != http.StatusOK || len(got) != 1 || got[0] != "" {
		t.Errorf("empty trace: code %d, callback saw %q; want the listing", code, got)
	}
}
