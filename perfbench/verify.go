package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"probtopk"
	"probtopk/internal/server"
	"probtopk/internal/uncertain"
)

// answer is one daemon answer kept for the output checks.
type answer struct {
	req  *request
	body []byte
}

// fetchAnswers sends the sample to the daemon; every request must succeed.
func fetchAnswers(d *daemon, sample []*request) ([]answer, error) {
	var out []answer
	for _, r := range sample {
		status, body, err := send(d.client, d.base, "perfbench-verify", r)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", r.path, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("verify %s %s: status %d: %s", r.path, r.body, status, bytes.TrimSpace(body))
		}
		out = append(out, answer{req: r, body: bytes.TrimSuffix(body, []byte("\n"))})
	}
	return out, nil
}

// checkAgainstEngine recomputes every answer with an in-process
// probtopk.Engine over the contents the daemon serves (downloaded as CSV)
// and compares the encoded answers byte for byte.
func checkAgainstEngine(d *daemon, answers []answer) error {
	eng := probtopk.NewEngine()
	snaps := map[string]*probtopk.Snapshot{}
	for _, a := range answers {
		snap, ok := snaps[a.req.table]
		if !ok {
			data, err := d.tableCSV(a.req.table)
			if err != nil {
				return err
			}
			t, err := uncertain.ReadCSV(bytes.NewReader(data))
			if err != nil {
				return fmt.Errorf("parsing %s csv: %w", a.req.table, err)
			}
			snap = t.Snapshot()
			snaps[a.req.table] = snap
		}
		want, err := engineAnswer(eng, snap, a.req)
		if err != nil {
			return fmt.Errorf("engine %s %s: %w", a.req.path, a.req.body, err)
		}
		if !bytes.Equal(want, a.body) {
			return fmt.Errorf("answer mismatch for %s %s:\n daemon %s\n engine %s", a.req.path, a.req.body, a.body, want)
		}
	}
	return nil
}

// engineAnswer computes the encoded answer to r through the public API.
func engineAnswer(eng *probtopk.Engine, snap *probtopk.Snapshot, r *request) ([]byte, error) {
	var q server.QueryRequest
	if err := json.Unmarshal(r.body, &q); err != nil {
		return nil, err
	}
	opts := &probtopk.Options{Threshold: q.Threshold, MaxLines: q.MaxLines}
	var resp any
	switch r.kind {
	case kindTopK:
		d, err := eng.TopKDistributionSnapshot(snap, q.K, opts)
		if err != nil {
			return nil, err
		}
		resp = publicDist(q.K, d)
	case kindTypical:
		d, err := eng.TopKDistributionSnapshot(snap, q.K, opts)
		if err != nil {
			return nil, err
		}
		lines, cost, err := d.Typical(q.C)
		if err != nil {
			return nil, err
		}
		tr := server.TypicalResponse{K: q.K, C: q.C, Cost: cost, Lines: []server.LineJSON{}}
		for _, l := range lines {
			tr.Lines = append(tr.Lines, publicLine(l))
		}
		tr.SpreadMean, tr.SpreadMax = probtopk.TypicalSpread(lines)
		resp = tr
	case kindBatch:
		bq := make([]probtopk.BatchQuery, len(q.Queries))
		for i, m := range q.Queries {
			bq[i] = probtopk.BatchQuery{K: m.K, Threshold: m.Threshold}
		}
		ds, err := eng.TopKDistributionBatchSnapshot(snap, bq, opts)
		if err != nil {
			return nil, err
		}
		br := server.BatchResponse{Results: make([]server.DistributionResponse, len(ds))}
		for i, d := range ds {
			br.Results[i] = publicDist(bq[i].K, d)
		}
		resp = br
	case kindBaseline:
		br := server.BaselineResponse{Semantic: r.semantic, K: q.K}
		var err error
		switch r.semantic {
		case "ukranks":
			var rows []probtopk.RankedTuple
			rows, err = eng.UKRanksSnapshot(snap, q.K)
			br.Ranks = []server.RankedTupleJSON{}
			for _, a := range rows {
				br.Ranks = append(br.Ranks, server.RankedTupleJSON{Rank: a.Rank, ID: a.ID, Score: a.Score, Prob: a.Prob})
			}
		case "ptk":
			br.P = q.P
			var tps []probtopk.TupleProb
			tps, err = eng.PTkSnapshot(snap, q.K, q.P)
			br.Tuples = publicTupleProbs(tps)
		case "globaltopk":
			var tps []probtopk.TupleProb
			tps, err = eng.GlobalTopKSnapshot(snap, q.K)
			br.Tuples = publicTupleProbs(tps)
		case "intopk":
			var tps []probtopk.TupleProb
			tps, err = eng.InTopKProbsSnapshot(snap, q.K)
			br.Tuples = publicTupleProbs(tps)
		case "expectedrank":
			var rows []probtopk.ExpectedRankTuple
			rows, err = eng.ExpectedRankTopKSnapshot(snap, q.K)
			br.Expected = []server.ExpectedRankJSON{}
			for _, a := range rows {
				br.Expected = append(br.Expected, server.ExpectedRankJSON{ID: a.ID, Score: a.Score, Prob: a.Prob, Rank: a.Rank})
			}
		default:
			err = fmt.Errorf("unknown baseline %q", r.semantic)
		}
		if err != nil {
			return nil, err
		}
		resp = br
	default:
		return nil, fmt.Errorf("not a query kind: %q", r.kind)
	}
	return json.Marshal(resp)
}

func publicLine(l probtopk.Line) server.LineJSON {
	return server.LineJSON{Score: l.Score, Prob: l.Prob, Vector: l.Vector, VectorProb: l.VectorProb}
}

func publicDist(k int, d *probtopk.Distribution) server.DistributionResponse {
	resp := server.DistributionResponse{K: k, ScanDepth: d.ScanDepth, TotalMass: d.TotalMass(), Lines: []server.LineJSON{}}
	for _, l := range d.Lines() {
		resp.Lines = append(resp.Lines, publicLine(l))
	}
	if len(resp.Lines) > 0 {
		resp.Stats = &server.DistStatsJSON{Mean: d.Mean(), StdDev: d.StdDev(), Median: d.Median(), Min: d.Min(), Max: d.Max()}
	}
	return resp
}

func publicTupleProbs(tps []probtopk.TupleProb) []server.TupleProbJSON {
	out := []server.TupleProbJSON{}
	for _, tp := range tps {
		out = append(out, server.TupleProbJSON{ID: tp.ID, Score: tp.Score, Prob: tp.Prob, InTopK: tp.InTopK})
	}
	return out
}

// checkAcked asserts that every acknowledged append's tuple ids are in the
// restarted daemon's tables.
func checkAcked(d *daemon, acked []*request) error {
	ids := map[string]map[string]bool{}
	for _, r := range acked {
		if ids[r.table] != nil {
			continue
		}
		data, err := d.tableCSV(r.table)
		if err != nil {
			return err
		}
		t, err := uncertain.ReadCSV(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("parsing %s csv: %w", r.table, err)
		}
		set := map[string]bool{}
		for _, tp := range t.Tuples() {
			set[tp.ID] = true
		}
		ids[r.table] = set
	}
	for _, r := range acked {
		for _, tp := range r.tuples {
			if !ids[r.table][tp.ID] {
				return fmt.Errorf("acknowledged tuple %s of table %s lost across SIGKILL + restart", tp.ID, r.table)
			}
		}
	}
	return nil
}
