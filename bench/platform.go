package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"healthcloud/internal/core"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/httpapi"
	"healthcloud/internal/ingest"
	"healthcloud/internal/kb"
	"healthcloud/internal/rbac"
	"healthcloud/internal/telemetry"
)

const (
	tenant      = "bench"
	adminUser   = "bench-sso:admin@bench"
	modelName   = "risk-score"
	opTimeout   = 5 * time.Second // an operation slower than this counts as failed
	storageSelf = "svc-storage"   // the lake's own KMS principal; reads as it need no grant
)

// platformConfig is the one platform shape this benchmark measures:
// every scaling and safety feature on, real fsync under dir, no modeled
// service times. The admission rate sits far above every offered rate,
// so the token bucket is on the request path but any 429/503 is a
// failure of the run.
func platformConfig(dir string) core.Config {
	return core.Config{
		Tenant: tenant, Shards: 4, Replicas: 2, Channels: 4, LedgerBatch: true,
		DataDir: dir, LedgerPeers: []string{"org-a", "org-b", "org-c"}, SignatureScheme: "ed25519",
		Admission: true, AdmissionRate: 1e6, AdmissionBurst: 2e6,
		Telemetry: telemetry.New(), TraceSample: 0.01, Monitor: true,
		KBLatency: 2 * time.Millisecond, // the stated injected WAN delay to the knowledge bases
	}
}

// instance is a booted platform behind a real loopback listener.
type instance struct {
	p    *core.Platform
	api  *httpapi.Server
	srv  *http.Server
	url  string
	keys map[string]hckrypto.SymmetricKey // device id -> shared upload key
}

// boot opens the platform on dir and serves it on a loopback socket.
func boot(dir string) (*instance, error) {
	p, err := core.New(platformConfig(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, err
	}
	api := httpapi.New(p)
	in := &instance{p: p, api: api, srv: &http.Server{Handler: api},
		url: "http://" + ln.Addr().String(), keys: make(map[string]hckrypto.SymmetricKey)}
	go in.srv.Serve(ln) // returns when close shuts the server down
	return in, nil
}

func (in *instance) close() {
	in.srv.Close()
	in.p.Close()
}

// conn is one keep-alive HTTP connection with a logged-in session.
type conn struct {
	cli   *http.Client
	base  string
	token string
}

func newConn(base, token string) *conn {
	return &conn{base: base, token: token, cli: &http.Client{Timeout: opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *conn) close() { c.cli.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		return 0, nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.cli.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect is do for set-up calls: any status but want is an error.
func (c *conn) expect(want int, method, path string, body []byte, out any) error {
	status, reply, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(reply))
	}
	if out != nil {
		return json.Unmarshal(reply, out)
	}
	return nil
}

// login registers the benchmark's admin with the platform's RBAC and
// exchanges a federated token for a session, over the socket.
func (in *instance) login(idp *rbac.IdentityProvider) (string, error) {
	in.p.RBAC.ApproveIdentityProvider(idp.Name(), idp.VerifyKey())
	if err := in.p.RBAC.RegisterUser(tenant, adminUser); err != nil {
		return "", err
	}
	if err := in.p.RBAC.AssignRole(adminUser, rbac.RoleAdmin, rbac.Scope{Tenant: tenant}, ""); err != nil {
		return "", err
	}
	tok, err := idp.Issue("admin@bench", tenant, time.Hour)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(tok)
	if err != nil {
		return "", err
	}
	var reply struct {
		Token string `json:"token"`
	}
	if err := newConn(in.url, "").expect(http.StatusOK, "POST", "/api/v1/login", body, &reply); err != nil {
		return "", err
	}
	return reply.Token, nil
}

// deployModel walks a model through the lifecycle so the model-pull
// route has something approved to serve.
func (in *instance) deployModel() error {
	a := in.p.Analytics
	a.Create(modelName, []byte(`{"draft":true}`))
	return errors.Join(
		a.MarkTrained(modelName, 1, []byte(`{"intercept":0.1,"weights":{"hba1c":0.4,"ldl":0.2}}`)),
		a.RecordTest(modelName, 1, map[string]float64{"auc": 0.9}, "auc", 0.8),
		a.Approve(modelName, 1, "compliance"),
		a.Deploy(modelName, 1))
}

// upload is the benchmark's record of one accepted upload.
type upload struct {
	id      string
	patient *patient
	start   time.Time // due time (open loop) or send time (closed loop)
	acked   time.Time
	probe   bool // sent for a patient whose consent is revoked: must end failed
	walk    bool // sent by the layer walk
	timed   bool // belongs to the timed window
}

// postUpload encrypts a patient's bundle under its device key and posts
// it. Encryption is the device's work, so it sits on the generator side.
func (in *instance) postUpload(c *conn, pt *patient) (string, error) {
	enc, err := hckrypto.EncryptGCM(in.keys[pt.device], pt.plain, []byte(pt.device))
	if err != nil {
		return "", err
	}
	var reply uploadReply
	err = c.expect(http.StatusAccepted, "POST", uploadPath(pt), enc, &reply)
	return reply.UploadID, err
}

// uploadReply is the body of a 202 from the upload route.
type uploadReply struct {
	UploadID string `json:"upload_id"`
}

func uploadPath(pt *patient) string {
	return "/api/v1/uploads?client=" + pt.device + "&group=" + pt.group
}

func consentBody(pt *patient) []byte {
	return []byte(fmt.Sprintf(`{"patient":%q,"group":%q}`, pt.id, pt.group))
}

// provision registers devices and consents over the API and stores the
// cohort, so the read paths have a populated lake, ledger and audit log.
// It returns the cohort's uploads in order.
func (in *instance) provision(c *conn, data *inputs) ([]upload, error) {
	in.p.SeedDemoProviders()
	if err := in.deployModel(); err != nil {
		return nil, err
	}
	for _, dev := range data.devices {
		var reply struct {
			Key string `json:"key"`
		}
		if err := c.expect(http.StatusCreated, "POST", "/api/v1/clients", []byte(fmt.Sprintf(`{"client_id":%q}`, dev)), &reply); err != nil {
			return nil, err
		}
		key, err := base64.StdEncoding.DecodeString(reply.Key)
		if err != nil {
			return nil, err
		}
		in.keys[dev] = key
	}
	for _, set := range [][]patient{data.cohort, data.regular, data.flips, {data.walker}} {
		for i := range set {
			if err := c.expect(http.StatusCreated, "POST", "/api/v1/consents", consentBody(&set[i]), nil); err != nil {
				return nil, err
			}
		}
	}
	// Preload in a closed loop with a window wide enough to fill the
	// ledger batches, well under the admission layer's shed depth.
	const window = 64
	ups := make([]upload, 0, len(data.cohort))
	base := in.p.Ingest.Completed()
	for i := range data.cohort {
		for uint64(i)-(in.p.Ingest.Completed()-base) >= window {
			time.Sleep(100 * time.Microsecond)
		}
		pt := &data.cohort[i]
		id, err := in.postUpload(c, pt)
		if err != nil {
			return nil, err
		}
		ups = append(ups, upload{id: id, patient: pt})
	}
	return ups, in.drain(ups)
}

// drain waits until every upload has reached a terminal state.
func (in *instance) drain(ups []upload) error {
	for i := range ups {
		st, err := in.p.Ingest.WaitForUpload(ups[i].id, opTimeout)
		if err != nil {
			return err
		}
		if !st.State.Terminal() {
			return fmt.Errorf("upload %s still %s", st.UploadID, st.State)
		}
	}
	return nil
}

// kbKeys lists every knowledge-base key the platform serves.
func kbKeys(d *kb.Dataset) []string {
	keys := make([]string, 0, len(d.DrugIDs)+len(d.DisIDs))
	for _, id := range d.DrugIDs {
		keys = append(keys, "drug:"+id)
	}
	for _, id := range d.DisIDs {
		keys = append(keys, "disease:"+id)
	}
	return keys
}

// kbBodies fetches every key straight from a zero-latency copy of the
// remote knowledge base: what a cached read must equal.
func kbBodies(d *kb.Dataset, keys []string) ([][]byte, error) {
	remote := kb.NewRemoteKB(d, 0)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		body, _, err := remote.Fetch(k)
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// syncAll forces every journal and ledger WAL to disk.
func (in *instance) syncAll() error {
	var errs []error
	for _, log := range in.p.LakeLogs {
		errs = append(errs, log.Sync())
	}
	for _, wal := range in.p.MultiChain.WALs() {
		errs = append(errs, wal.Sync())
	}
	return errors.Join(errs...)
}

// status reads an upload's status in-process, so nobody polls the
// status route during the timed window.
func (in *instance) status(id string) ingest.Status {
	st, _ := in.p.Ingest.Status(id) // a missing id reads as the zero status, which no check accepts
	return st
}
