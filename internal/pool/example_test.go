package pool_test

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/pool"
)

// ExampleOpen pools three independent CXL clusters, each a sharded
// durable KV store with its own fabric and clock, behind the kv.DB
// interface a single store serves. A batch splits per cluster and commits
// with one Ack, MultiGet fans out and merges in input order, and a shard
// crash stays contained to its own cluster: recovery brings back every
// acknowledged write.
func ExampleOpen() {
	db, _ := pool.Open(pool.Config{
		Clusters: 3,
		Store:    kv.Config{Shards: 2, Strategy: kv.RangedCommit, Batch: 4, Capacity: 256, Seed: 42},
	})
	batch := new(kv.Batch)
	for user := core.Val(1); user <= 12; user++ {
		batch.Put(user, user*100)
	}
	batch.Delete(7)
	ack, _ := db.Apply(batch)
	fmt.Printf("applied a %d-op batch: durable=%v\n", batch.Len(), ack.Durable)

	perCluster := make([]int, 3)
	for user := core.Val(1); user <= 12; user++ {
		perCluster[db.ClusterOf(user)]++
	}
	fmt.Println("keys per cluster:", perCluster)

	res, _ := db.MultiGet([]core.Val{3, 7, 11})
	for _, l := range res {
		fmt.Printf("user %d: found=%v value=%d\n", l.Key, l.Found, l.Val)
	}

	db.Crash(3) // cluster 1's second shard
	stats, _ := db.Recover(3)
	fmt.Printf("shard 3 recovered %d records, lost %d\n", stats.Recovered, stats.Lost)
	intact := 0
	for user := core.Val(1); user <= 12; user++ {
		if v, ok, _ := db.Get(user); ok == (user != 7) && (!ok || v == user*100) {
			intact++
		}
	}
	fmt.Printf("%d/12 keys as acknowledged\n", intact)
	// Output:
	// applied a 13-op batch: durable=true
	// keys per cluster: [5 5 2]
	// user 3: found=true value=300
	// user 7: found=false value=0
	// user 11: found=true value=1100
	// shard 3 recovered 4 records, lost 0
	// 12/12 keys as acknowledged
}
