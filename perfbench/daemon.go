package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"probtopk/internal/server"
)

// daemon is one running topkd process, started with the default flags plus
// a loopback address picked by the kernel and a -data-dir.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	dir    string
	client *http.Client // control requests (uploads, stats, checks)

	logMu sync.Mutex
	log   bytes.Buffer // the daemon's stderr, for error reports
	done  chan struct{}
}

// startDaemon execs topkd on dataDir and returns once it listens; the
// caller polls /healthz (waitHealthy) for readiness.
func startDaemon(bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting topkd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dataDir, done: make(chan struct{}), client: newClient()}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if d.log.Len() < 1<<16 {
				d.log.WriteString(line + "\n")
			}
			d.logMu.Unlock()
			if _, a, ok := strings.Cut(line, "topkd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		// The pipe reached EOF: the process has exited or closed stderr.
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + strings.TrimSpace(a)
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("topkd exited during start-up:\n%s", d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("topkd did not start listening within 60s")
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("topkd exited:\n%s", d.logText())
		case <-time.After(time.Millisecond):
		}
	}
	return errors.New("topkd /healthz did not answer within 60s")
}

// stop sends SIGTERM and waits for the orderly shutdown.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("topkd did not exit within 30s of SIGTERM")
	}
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// call sends one control request and requires the wanted status.
func (d *daemon) call(method, path, contentType string, body []byte, want ...int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return data, nil
		}
	}
	return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
}

func (d *daemon) stats() (*server.StatsResponse, error) {
	data, err := d.call("GET", "/debug/stats", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decoding /debug/stats: %w", err)
	}
	return &st, nil
}

// tableCSV downloads a table's live tuples.
func (d *daemon) tableCSV(name string) ([]byte, error) {
	return d.call("GET", "/tables/"+name+"/csv", "", nil, http.StatusOK)
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
