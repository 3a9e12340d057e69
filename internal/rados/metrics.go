package rados

// metrics.go holds the package's telemetry handles. Client-side series
// are resolved once at init; OSD-side series carry an `osd` label and
// are resolved once per OSD at construction (newOSDMetrics). That is
// the label-cardinality rule the METRICS.md contract documents: label
// handles are resolved when the labeled thing is built — package init,
// NewOSD, walker start — never on the request path, so recording stays
// a pre-bound atomic add with zero allocations.

import (
	"strconv"

	"repro/internal/simdisk"
	"repro/internal/telemetry"
)

var (
	mClientRequests = telemetry.NewCounter("client_requests_total",
		"object requests issued by rados clients")
	mClientErrors = telemetry.NewCounter("client_errors_total",
		"client requests that failed (transport or dispatch)")
	mClientBytes = telemetry.NewCounter("client_bytes_total",
		"payload bytes carried by client requests (write data in, read lengths out)")
	mClientLat = telemetry.NewHistogram("client_request_vtime",
		"virtual time from client issue to reply delivery")
	mClientOpsVec = telemetry.NewCounterVec("client_ops_total",
		"client-issued object operations by kind", "op")

	mOSDRequestsVec = telemetry.NewCounterVec("osd_requests_total",
		"requests served by OSDs, by replication role and OSD id", "role", "osd")
	mOSDOpsVec = telemetry.NewCounterVec("osd_ops_total",
		"object operations executed by OSDs, by kind and OSD id", "op", "osd")
	mOSDBytesVec = telemetry.NewCounterVec("osd_bytes_total",
		"payload bytes through OSD request execution", "osd")
	mOSDErrorsVec = telemetry.NewCounterVec("osd_errors_total",
		"OSD requests that failed with a transport-level error", "osd")
	mOSDServeLatVec = telemetry.NewHistogramVec("osd_serve_vtime",
		"virtual time of OSD serve (CPU admission through local commit and replication)", "osd")
	mOSDReplicationsVec = telemetry.NewCounterVec("osd_replications_total",
		"primary-copy replication fan-outs issued", "osd")
	mOSDReplLatVec = telemetry.NewHistogramVec("osd_replicate_vtime",
		"virtual time of the replication fan-out (slowest replica ack)", "osd")

	mDevReadOps = telemetry.NewCounterVec("device_read_ops_total",
		"sector read operations issued to the OSD's simulated devices", "osd")
	mDevWriteOps = telemetry.NewCounterVec("device_write_ops_total",
		"sector write operations issued to the OSD's simulated devices", "osd")
	mDevSectorsRead = telemetry.NewCounterVec("device_sectors_read_total",
		"sectors read from the OSD's simulated devices", "osd")
	mDevSectorsWritten = telemetry.NewCounterVec("device_sectors_written_total",
		"sectors written (persisted) to the OSD's simulated devices", "osd")

	// Per-kind client counters pre-resolved into an array indexed by
	// OpKind, so the request loop records with one bounds check and no
	// map lookup.
	mClientOps [numOpKinds]*telemetry.Counter
)

func init() {
	for k := OpRead; k < numOpKinds; k++ {
		mClientOps[k] = mClientOpsVec.With(k.String())
	}
}

// osdMetrics is one OSD's metric identity: every osd-labeled series
// handle pre-resolved at construction, plus the OSD's pre-rendered
// trace hop names ("osd3:serve") so the serve path never formats a
// string.
type osdMetrics struct {
	primary, replica *telemetry.Counter
	ops              [numOpKinds]*telemetry.Counter
	bytes, errors    *telemetry.Counter
	serveLat         *telemetry.Histogram
	replications     *telemetry.Counter
	replLat          *telemetry.Histogram

	serveHop, replHop string
}

func newOSDMetrics(id int) *osdMetrics {
	osd := strconv.Itoa(id)
	m := &osdMetrics{
		primary:      mOSDRequestsVec.With("primary", osd),
		replica:      mOSDRequestsVec.With("replica", osd),
		bytes:        mOSDBytesVec.With(osd),
		errors:       mOSDErrorsVec.With(osd),
		serveLat:     mOSDServeLatVec.With(osd),
		replications: mOSDReplicationsVec.With(osd),
		replLat:      mOSDReplLatVec.With(osd),
		serveHop:     "osd" + osd + ":serve",
		replHop:      "osd" + osd + ":replicate",
	}
	for k := OpRead; k < numOpKinds; k++ {
		m.ops[k] = mOSDOpsVec.With(k.String(), osd)
	}
	return m
}

// newDeviceMetrics resolves one OSD's device-series handles; all of the
// OSD's disks share them (the counters are atomic).
func newDeviceMetrics(id int) *simdisk.DeviceMetrics {
	osd := strconv.Itoa(id)
	return &simdisk.DeviceMetrics{
		ReadOps:        mDevReadOps.With(osd),
		WriteOps:       mDevWriteOps.With(osd),
		SectorsRead:    mDevSectorsRead.With(osd),
		SectorsWritten: mDevSectorsWritten.With(osd),
	}
}

// countOps records the per-kind op counters and returns the request's
// payload byte weight (write-side data plus read-side lengths).
func countOps(ops []Op, perKind *[numOpKinds]*telemetry.Counter) int64 {
	var bytes int64
	for i := range ops {
		op := &ops[i]
		if k := int(op.Kind); k > 0 && k < len(perKind) && perKind[k] != nil {
			perKind[k].Inc()
		}
		bytes += int64(len(op.Data))
		if op.Kind == OpRead {
			bytes += op.Len
		}
		for _, p := range op.Pairs {
			bytes += int64(len(p.Key) + len(p.Value))
		}
	}
	return bytes
}
