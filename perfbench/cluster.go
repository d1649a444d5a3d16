package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/tripled"
)

// Cluster is three in-process tripled nodes, each with a WAL under its
// own directory (default interval sync policy), addressed as one
// replicas=2 cluster spec.
type Cluster struct {
	Spec    string
	dir     string
	stores  []*tripled.Store
	servers []*tripled.Server
}

const clusterNodes = 3

// StartCluster starts the nodes with WALs under a fresh directory
// inside base.
func StartCluster(base string) (*Cluster, error) {
	dir, err := os.MkdirTemp(base, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &Cluster{dir: dir}
	addrs := make([]string, 0, clusterNodes)
	for i := 0; i < clusterNodes; i++ {
		st := tripled.NewStore()
		srv, err := tripled.Serve(st, "127.0.0.1:0",
			tripled.WithDataDir(filepath.Join(dir, fmt.Sprintf("node%d", i))))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("start tripled node %d: %w", i, err)
		}
		c.stores = append(c.stores, st)
		c.servers = append(c.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	c.Spec = strings.Join(addrs, ",") + ";replicas=2"
	return c, nil
}

// Cells is the number of cells the nodes hold, replicas included.
func (c *Cluster) Cells() int {
	n := 0
	for _, st := range c.stores {
		n += st.NNZ()
	}
	return n
}

// WALBytes is the on-disk size of every node's data directory.
func (c *Cluster) WALBytes() int64 {
	var n int64
	filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// Close stops every node and removes the WAL directories.
func (c *Cluster) Close() error {
	var errs []error
	for _, srv := range c.servers {
		errs = append(errs, srv.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}
