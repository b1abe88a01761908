// The 16 LogHub-like dataset banks (see corpus.hpp). Template sets mirror
// the structure of the real LogHub samples: event counts, header layouts,
// token shapes, and the difficulty characteristics the paper reports
// (easy: Apache/Windows; hard: Linux/HPC/Proxifier; raw-log regressions:
// HealthApp, Proxifier).
#include "loggen/corpus.hpp"

namespace seqrtg::loggen {

namespace {

DatasetSpec hdfs() {
  return {
      "HDFS",
      "081109 {int:100000-999999} {int:10-9999} INFO ",
      {
          {"dfs.DataNode$PacketResponder: PacketResponder {int:0-3} for "
           "block {blk} terminating"},
          {"dfs.DataNode$PacketResponder: Received block {blk} of size "
           "{int} from /{ip}"},
          {"dfs.FSNamesystem: BLOCK* NameSystem.addStoredBlock: blockMap "
           "updated: {ip}:{port} is added to {blk} size {int}"},
          {"dfs.DataNode$DataXceiver: Receiving block {blk} src: "
           "/{ip}:{port} dest: /{ip}:{port}"},
          {"dfs.FSNamesystem: BLOCK* NameSystem.allocateBlock: "
           "/usr/data/job/{alnum}/part-{int:0-9999} {blk}"},
          {"dfs.DataNode$DataXceiver: {ip}:{port} Served block {blk} to "
           "/{ip}"},
          {"dfs.DataNode$DataXceiver: writeBlock {blk} received exception "
           "java.io.IOException: Connection reset by peer"},
          {"dfs.DataBlockScanner: Verification {opt:again }succeeded for "
           "{blk}"},
          {"dfs.FSNamesystem: BLOCK* NameSystem.delete: {blk} is added to "
           "invalidSet of {ip}:{port}"},
          {"dfs.DataNode: Deleting block {blk} file {path}"},
          {"dfs.FSNamesystem: BLOCK* ask {ip}:{port} to replicate {blk} to "
           "datanode(s) {ip}:{port}"},
          {"dfs.DataNode$BlockReceiver: Exception in receiveBlock for "
           "block {blk} java.io.IOException: Broken pipe"},
          {"dfs.DataNode: {ip}:{port} Starting thread to transfer block "
           "{blk} to {ip}:{port}"},
          {"dfs.FSNamesystem: BLOCK* NameSystem.addStoredBlock: Redundant "
           "addStoredBlock request received for {blk} on {ip}:{port} size "
           "{int}"},
      },
      1.1};
}

DatasetSpec hadoop() {
  return {
      "Hadoop",
      "{ts_iso_comma} INFO [main] ",
      {
          {"org.apache.hadoop.mapreduce.v2.app.MRAppMaster: Created "
           "MRAppMaster for application appattempt_{int}_{int:1-9999}_"
           "{int:1-99}"},
          {"org.apache.hadoop.mapred.MapTask: Processing split: "
           "hdfs://{host}:{port}/user/{word}/input/part-{int:0-99}:"
           "{int}+{int}"},
          {"org.apache.hadoop.mapreduce.task.reduce.Fetcher: fetcher#"
           "{int:1-50} about to shuffle output of map "
           "attempt_{int}_{int:1-9999}_m_{int}_{int:0-9} decomp: {int} len: "
           "{int} to {oneof:MEMORY|DISK}"},
          {"org.apache.hadoop.mapred.Task: Task "
           "'attempt_{int}_{int:1-9999}_r_{int}_{int:0-9}' done."},
          {"org.apache.hadoop.mapreduce.v2.app.job.impl.TaskAttemptImpl: "
           "Progress of TaskAttempt attempt_{int}_{int:1-9999}_m_{int}_"
           "{int:0-9} is : {float}"},
          {"org.apache.hadoop.yarn.client.RMProxy: Connecting to "
           "ResourceManager at {host}/{ip}:{port}"},
          {"org.apache.hadoop.mapreduce.Job: map {int:0-100}% reduce "
           "{int:0-100}%"},
          {"org.apache.hadoop.ipc.Client: Retrying connect to server: "
           "{host}/{ip}:{port}. Already tried {int:0-9} time(s); retry "
           "policy is RetryUpToMaximumCountWithFixedSleep(maxRetries={int:"
           "10-50}, sleepTime={int:1-10} SECONDS)"},
          {"org.apache.hadoop.mapreduce.task.reduce.MergeManagerImpl: "
           "closeInMemoryFile -> map-output of size: {int}, inMemoryMapOutputs"
           ".size() -> {int:1-99}, commitMemory -> {int}, usedMemory -> "
           "{int}"},
          {"org.apache.hadoop.mapreduce.v2.app.rm.RMContainerAllocator: "
           "Assigned container container_{int}_{int:1-9999}_{int:1-99}_"
           "{int} to attempt_{int}_{int:1-9999}_m_{int}_{int:0-9}"},
          {"org.apache.hadoop.yarn.util.RackResolver: Resolved {host} to "
           "/default-rack"},
          {"org.apache.hadoop.mapred.ShuffleHandler: Setting connection "
           "close header..."},
          {"org.apache.hadoop.mapreduce.v2.app.job.impl.JobImpl: "
           "job_{int}_{int:1-9999} Job Transitioned from RUNNING to "
           "COMMITTING"},
          {"org.apache.hadoop.metrics2.impl.MetricsSystemImpl: Scheduled "
           "snapshot period at {int:5-60} second(s)."},
      },
      1.1};
}

DatasetSpec spark() {
  return {
      "Spark",
      "{ts_spark} INFO ",
      {
          {"executor.Executor: Finished task {float} in stage {float} (TID "
           "{int}). {int} bytes result sent to driver"},
          {"executor.Executor: Running task {float} in stage {float} (TID "
           "{int})"},
          {"storage.BlockManager: Found block rdd_{int:1-99}_{int:1-999} "
           "locally"},
          {"storage.MemoryStore: Block broadcast_{int:1-999} stored as "
           "values in memory (estimated size {float} KB, free {float} MB)"},
          {"storage.MemoryStore: Block broadcast_{int:1-999}_piece{int:0-9} "
           "stored as bytes in memory (estimated size {float} KB, free "
           "{float} MB)"},
          {"broadcast.TorrentBroadcast: Reading broadcast variable "
           "{int:1-999} took {int} ms"},
          {"scheduler.TaskSetManager: Starting task {float} in stage "
           "{float} (TID {int}, {host}, partition {int:1-999},"
           "PROCESS_LOCAL, {int} bytes)"},
          {"scheduler.TaskSetManager: Finished task {float} in stage "
           "{float} (TID {int}) in {int} ms on {host} ({int:1-99}/{int:1-"
           "999})"},
          {"scheduler.DAGScheduler: ShuffleMapStage {int:1-999} "
           "(saveAsTextFile at {word}.scala:{int:10-999}) finished in "
           "{float} s"},
          {"rdd.HadoopRDD: Input split: hdfs://{host}:{port}/data/"
           "{word}/part-{int:0-9999}:{int}+{int}"},
          {"spark.SecurityManager: Changing view acls to: {word}"},
          {"util.Utils: Successfully started service '{word}' on port "
           "{port}."},
          {"client.TransportClientFactory: Successfully created connection "
           "to {host}/{ip}:{port} after {int:1-999} ms ({int:0-99} ms spent "
           "in bootstraps)"},
          {"storage.ShuffleBlockFetcherIterator: Getting {int:1-999} "
           "non-empty blocks out of {int:1-999} blocks"},
          {"storage.ShuffleBlockFetcherIterator: Started {int:0-99} remote "
           "fetches in {int:1-999} ms"},
          {"executor.CoarseGrainedExecutorBackend: Got assigned task "
           "{int}"},
          {"spark.MapOutputTrackerWorker: Don't have map outputs for "
           "shuffle {int:1-99}, fetching them"},
          {"spark.CacheManager: Partition rdd_{int:1-99}_{int:1-999} not "
           "found, computing it"},
          {"python.PythonRunner: Times: total = {int}, boot = {int:1-999}, "
           "init = {int:1-999}, finish = {int:1-999}"},
      },
      1.1};
}

DatasetSpec zookeeper() {
  return {
      "Zookeeper",
      "{ts_iso_comma} - INFO  ",
      {
          {"[NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181:NIOServerCnxnFactory@"
           "{int:100-999}] - Accepted socket connection from /{ip}:{port}"},
          {"[NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181:NIOServerCnxn@{int:"
           "100-999}] - Closed socket connection for client /{ip}:{port} "
           "which had sessionid 0x{hex:16}"},
          {"[SyncThread:0:ZooKeeperServer@{int:100-999}] - Established "
           "session 0x{hex:16} with negotiated timeout {int:2000-40000} "
           "for client /{ip}:{port}"},
          {"[ProcessThread(sid:0 cport:-1)::PrepRequestProcessor@{int:100-"
           "999}] - Processed session termination for sessionid: "
           "0x{hex:16}"},
          {"[SessionTracker:ZooKeeperServer@{int:100-999}] - Expiring "
           "session 0x{hex:16}, timeout of {int:2000-40000}ms exceeded"},
          {"[QuorumPeer[myid={int:1-5}]/0.0.0.0:2181:Leader@{int:100-999}] "
           "- Have quorum of supporters; starting up and setting last "
           "processed zxid: 0x{hex:9}"},
          {"[NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181:NIOServerCnxn@{int:"
           "100-999}] - caught end of stream exception"},
          {"[WorkerReceiver[myid={int:1-5}]:FastLeaderElection@{int:100-"
           "999}] - Notification: {int:1-5} (n.leader), 0x{hex:9} (n.zxid), "
           "0x{hex:1} (n.round), LOOKING (n.state), {int:1-5} (n.sid), "
           "0x{hex:1} (n.peerEPoch), LEADING (my state)"},
          {"[main:QuorumPeer@{int:100-999}] - tickTime set to "
           "{int:2000-4000}"},
          {"[LearnerHandler-/{ip}:{port}:LearnerHandler@{int:100-999}] - "
           "Synchronizing with Follower sid: {int:1-5} maxCommittedLog="
           "0x{hex:9} minCommittedLog=0x{hex:9} peerLastZxid=0x{hex:9}"},
      },
      1.1};
}

DatasetSpec openstack() {
  return {
      "OpenStack",
      "nova-compute.log.{int:1-9999}.{ts_iso} {int:1000-9999} INFO ",
      {
          {"nova.compute.manager [req-{uuid} {hex:32} {hex:32} - - -] "
           "[instance: {uuid}] VM Started (Lifecycle Event)"},
          {"nova.compute.manager [req-{uuid} {hex:32} {hex:32} - - -] "
           "[instance: {uuid}] VM {opt:Resumed }Paused (Lifecycle Event)"},
          {"nova.compute.manager [req-{uuid} {hex:32} {hex:32} - - -] "
           "[instance: {uuid}] During sync_power_state the instance has a "
           "pending task (spawning). Skip."},
          {"nova.virt.libvirt.imagecache [req-{uuid} - - - - -] image "
           "{uuid} at ({path}): checking"},
          {"nova.compute.resource_tracker [req-{uuid} - - - - -] Final "
           "resource view: name={host} phys_ram={int}MB used_ram={int}MB "
           "phys_disk={int}GB used_disk={int}GB total_vcpus={int:1-64} "
           "used_vcpus={int:0-64} pci_stats=[]{opt: disabled}"},
          {"nova.compute.claims [req-{uuid} {hex:32} {hex:32} - - -] "
           "[instance: {uuid}] Total memory: {int} MB, used: {float} MB"},
          {"nova.osapi_compute.wsgi.server [req-{uuid} {hex:32} {hex:32} - "
           "- -] {ip} \"GET /v2/{hex:32}/servers/detail HTTP/1.1\" status: "
           "200 len: {int} time: {float}"},
          {"nova.osapi_compute.wsgi.server [req-{uuid} {hex:32} {hex:32} - "
           "- -] {ip} \"POST /v2/{hex:32}/os-server-external-events "
           "HTTP/1.1\" status: 200 len: {int} time: {float}"},
          {"nova.metadata.wsgi.server [req-{uuid} - - - - -] {ip},{ip} "
           "\"GET /latest/meta-data/instance-id HTTP/1.1\" status: 200 "
           "len: {int} time: {float}"},
          {"nova.compute.manager [req-{uuid} {hex:32} {hex:32} - - -] "
           "[instance: {uuid}] Took {float} seconds to build instance."},
          {"nova.scheduler.client.report [req-{uuid} {hex:32} {hex:32} - - "
           "-] Deleted allocation for instance {uuid}"},
      },
      1.0};
}

DatasetSpec bgl() {
  return {
      "BGL",
      "- {ts_epoch} {ts_bgl} R{int:0-77}-M{int:0-1}-N{int:0-15}-C:J{int:"
      "10-17}-U{int:0-11} {ts_bgl} RAS KERNEL ",
      {
          {"INFO instruction cache parity error corrected"},
          {"INFO generating core.{int:1-9999}"},
          {"INFO CE sym {int:0-40}, at 0x{hex:8}, mask 0x{hex:2}"},
          {"INFO total of {int:1-99} ddr error(s) detected and corrected"
           "{opt: over 0 seconds}"},
          {"INFO ddr: excessive soft failures, consider replacing the card"},
          {"FATAL data TLB error interrupt"},
          {"FATAL machine check interrupt"},
          {"INFO shutdown complete"},
          {"FATAL kernel panic"},
          {"INFO ciod: Message code {int:0-99} is not {int:0-99} or "
           "{int:100-999}"},
          {"FATAL ciod: failed to read message prefix on control stream "
           "(CioStream socket to {ip}:{port}"},
          {"INFO ciod: generated {int:1-999} core files for program "
           "{path}"},
          {"FATAL rts: kernel terminated for reason {int:1000-1099}rts: bad "
           "message header: expecting type {int:1-99} but got {int:100-999}"},
          {"INFO mmcs_db_server has been restarted"},
          {"FATAL L3 major internal error"},
          {"INFO {int:1-128} L3 EDRAM error(s) (dcr 0x{hex:4}) detected "
           "and corrected over {int:1-999} seconds"},
          {"FATAL rts panic! - stopping execution"},
          {"INFO program interrupt: fp cr field 0x{hex:1}"},
          {"INFO ciodb has been restarted"},
          {"INFO idoproxydb has been started: $Name: V1R2M1 $ Input "
           "parameters: -enableflush -loguserinfo db.properties BlueGene1"},
          {"INFO Starting SystemController UNKNOWN_LOCATION"},
          {"INFO Waiting for gload to complete"},
          {"FATAL ciod: Error loading {path}: invalid or missing program "
           "image, No such file or directory"},
          {"FATAL ciod: Error loading {path}: program image too big, "
           "{int} > {int}"},
          {"FATAL ciod: failed to read message prefix on control stream "
           "(CioStream socket to {ip}:{port}"},
          {"INFO {int:1-999} double-hummer alignment exceptions"},
          {"FATAL external input interrupt (unit=0x{hex:2} bit=0x{hex:2}): "
           "uncorrectable torus error"},
          {"INFO ciod: LOGIN chdir({path}) failed: No such file or "
           "directory"},
          {"FATAL ciod: cpu {int:0-3} at treeaddr {int:1-999} sent unknown "
           "message type {int:0-255}"},
          {"INFO ciod: Received signal {int:1-31}, code {int:0-255}"},
          {"FATAL machine check: i-fetch unit error"},
          {"INFO lustre: setting fail_loc 0x{hex:8}"},
          {"FATAL ddr: Unable to steer rank {int:0-7}, symbol {int:0-71} - "
           "rank is already steering symbol {int:0-71}"},
      },
      1.15};
}

DatasetSpec hpc() {
  return {
      "HPC",
      "{int:100000-999999} node-{int:0-1023} unix.hw state_change.",
      {
          {"unavailable {ts_epoch} {int:1-9999} Component State Change: "
           "Component \\042alt{int:0-31}\\042 is in the unavailable state "
           "(HWID={int:1000-9999})"},
          {"available {ts_epoch} {int:1-9999} Component State Change: "
           "Component \\042alt{int:0-31}\\042 is in the available state "
           "(HWID={int:1000-9999})"},
          {"failure {ts_epoch} {int:1-9999} Fan speeds ( {intlist:4-7} )"},
          {"running {ts_epoch} {int:1-9999} risBoot command from {alnum} "
           "to node-{int:0-1023}"},
          {"down {ts_epoch} {int:1-9999} Link error on broadcast tree "
           "Interconnect-{hex:4}:{int:0-63}:{int:0-7}"},
          {"halt {ts_epoch} {int:1-9999} ServerFileSystem domain storage"
           "{int:0-99} has an inconsistent file system"},
          {"boot {ts_epoch} {int:1-9999} Targeting domains:node-D{int:0-9} "
           "and nodes:node-{int:0-1023} child of command {int:1-9999}"},
          {"down {ts_epoch} {int:1-9999} PSU status ( on off ) voltage "
           "{float} exceeds limit"},
          {"warning {ts_epoch} {int:1-9999} Temperature ({int:40-99}) "
           "exceeds warning threshold on node-{int:0-1023}"},
          {"down {ts_epoch} {int:1-9999} PSU status ( {oneof:on|off} "
           "{oneof:on|off} )"},
          {"down {ts_epoch} {int:1-9999} inconsistent nodesets "
           "node-{int:0-1023} 0x{hex:8}"},
      },
      1.05};
}

DatasetSpec thunderbird() {
  return {
      "Thunderbird",
      "- {ts_epoch} {ts_iso} {alnum:5} {ts_syslog} {alnum:5}/{alnum:5} ",
      {
          {"sshd[{pid}]: pam_unix(sshd:session): session opened for user "
           "{user} by (uid={int:0-1000})"},
          {"sshd[{pid}]: pam_unix(sshd:session): session closed for user "
           "{user}"},
          {"kernel: scsi({int:0-9}): Waiting for LIP to complete..."},
          {"pbs_mom: Connection refused (111) in open_demux, open_demux: "
           "connect {ip}:{port}"},
          {"sshd[{pid}]: Accepted publickey for {user} from ::ffff:{ip} "
           "port {port} ssh2"},
          {"crond[{pid}]: (root) CMD (run-parts /etc/cron.hourly)"},
          {"kernel: ACPI: Processor [CPU{int:0-7}] (supports 8 throttling "
           "states)"},
          {"ntpd[{pid}]: synchronized to {ip}, stratum {int:1-9}"},
          {"kernel: Losing some ticks... checking if CPU frequency "
           "changed."},
          {"xinetd[{pid}]: START: auth pid={pid} from=::ffff:{ip}"},
          {"postfix/smtpd[{pid}]: connect from {host}[{ip}]"},
          {"in.tftpd[{pid}]: RRQ from {ip} filename {path}"},
          {"kernel: e1000: eth{int:0-3}: e1000_watchdog_task: NIC Link is "
           "Up 1000 Mbps Full Duplex"},
          {"gmond[{pid}]: Error 1 sending message to {ip}"},
          {"dhcpd: DHCPDISCOVER from {mac} via eth{int:0-1}"},
          {"dhcpd: DHCPOFFER on {ip} to {mac} via eth{int:0-1}"},
          {"named[{pid}]: lame server resolving '{host}' (in '{word}.org'?): "
           "{ip}#53"},
          {"sendmail[{pid}]: {alnum:14}: from=<{email}>, size={int}, "
           "class=0, nrcpts={int:1-9}, proto=ESMTP, daemon=MTA, "
           "relay={host} [{ip}]"},
          {"kernel: program {word} is using a deprecated SCSI ioctl, "
           "please convert it to SG_IO"},
          {"kernel: drm: registered panic notifier"},
          {"ntpd[{pid}]: kernel time sync enabled {int:1000-9999}"},
          {"sshd[{pid}]: error: PAM: Authentication failure for {user} "
           "from {host}"},
          {"automount[{pid}]: expired {path}"},
          {"pbs_mom: scan_for_terminated: job {int}.{host} task {int:1-99} "
           "terminated"},
      },
      1.1};
}

DatasetSpec windows() {
  return {
      "Windows",
      "{ts_windows}, Info                  CBS    ",
      {
          {"Loaded Servicing Stack v6.1.7601.{int} with Core: {path}\\"
           "cbscore.dll"},
          {"Ending TrustedInstaller initialization."},
          {"Starting TrustedInstaller finalization."},
          {"Ending TrustedInstaller finalization."},
          {"SQM: Initializing online with Windows opt-in: False"},
          {"SQM: Cleaning up report files older than {int:5-30} days."},
          {"SQM: Requesting upload of all unsent reports."},
          {"SQM: Failed to start upload with file pattern: "
           "C:\\Windows\\servicing\\sqm\\*_std.sqm, flags: 0x{hex:1} "
           "[HRESULT = 0x{hex:8} - E_FAIL]"},
          {"No startup processing required, TrustedInstaller service was "
           "not set as autostart, or else a reboot is still pending."},
          {"NonStart: Checking to ensure startup processing was not "
           "required."},
          {"Startup processing thread terminated normally"},
          {"TI: --- Initializing Trusted Installer ---"},
          {"TI: Last boot time: {ts_iso}.{int}"},
          {"Starting the TrustedInstaller main loop."},
          {"TrustedInstaller service starts successfully."},
          {"Read out cached package applicability for package: "
           "Package_for_KB{int}~31bf3856ad364e35~amd64~~6.1.{int:1-9}.{int:"
           "1-9}, ApplicableState: {int:0-112}, CurrentState:{int:0-112}"},
          {"Session: {int}_{int} initialized by client WindowsUpdateAgent."},
          {"Config flushed to disk"},
          {"Expecting attribute name [HRESULT = 0x{hex:8} - "
           "CBS_E_MANIFEST_INVALID_ITEM]"},
          {"Failed to get next element [HRESULT = 0x{hex:8} - "
           "CBS_E_MANIFEST_INVALID_ITEM]"},
          {"Loading offline registry hive: SOFTWARE, into registry key "
           "'{{bf1a281b-ad7b-4476-ac95-f47682990ce7}}C:/Users/sqm/working/"
           "{int}/Windows/System32/config/SOFTWARE' from path "
           "'C:/Users/sqm/working/{int}/Windows/System32/config/SOFTWARE'."},
          {"Warning: Unrecognized packageExtended attribute."},
          {"Performing {int:1-99} operations; {int:1-99} are not lock/"
           "unlock and follow the lock precedence"},
      },
      1.05};
}

DatasetSpec linux() {
  return {
      "Linux",
      "{ts_syslog} combo ",
      {
          // Several near-identical authentication templates that differ
          // only in variable positions — the documented reason Linux sits
          // around 0.70 for every parser in [11].
          {"sshd(pam_unix)[{pid}]: authentication failure; logname= uid=0 "
           "euid=0 tty=NODEVssh ruser= rhost={host} {opt:uid=0 } user=root"},
          {"sshd(pam_unix)[{pid}]: authentication failure; logname= uid=0 "
           "euid=0 tty=NODEVssh ruser= rhost={ip}"},
          {"sshd(pam_unix)[{pid}]: check pass; user unknown"},
          {"sshd(pam_unix)[{pid}]: session opened for user {user} by "
           "(uid={int:0-1000})"},
          {"sshd(pam_unix)[{pid}]: session closed for user {user}"},
          {"su(pam_unix)[{pid}]: session opened for user {oneof:news|cyrus|mail} "
           "by (uid={int:0-1000})"},
          {"su(pam_unix)[{pid}]: session closed for user {word}"},
          {"ftpd[{pid}]: connection from {ip} () at {ts_apache}"},
          {"ftpd[{pid}]: connection from {ip} ({host}) at {ts_apache}"},
          {"kernel: audit(111{int}.{int:100-999}:{int:0-9}): initialized"},
          {"kernel: Installing knfsd (copyright (C) 1996 okir@monad.swb."
           "de)."},
          {"kernel: klogd 1.4.1, log source = /proc/kmsg started."},
          {"syslogd 1.4.1: restart."},
          {"cups: cupsd shutdown succeeded"},
          {"logrotate: ALERT exited abnormally with [{int:1-2}]"},
          {"gpm[{pid}]: *** info [mice.c({int:100-999})]: imps2: "
           "Auto-detected intellimouse PS/2"},
          {"kernel: usb {int:1-9}-{int:1-9}: new high speed USB device "
           "using ehci_hcd and address {int:1-99}"},
          {"kernel: EXT3-fs: mounted filesystem with ordered data mode."},
          {"kernel: CPU {int:0-7}: Thermal monitoring enabled"},
          {"sshd(pam_unix)[{pid}]: 2 more authentication failures; "
           "logname= uid=0 euid=0 tty=NODEVssh ruser= rhost={host}  "
           "user=root"},
          {"xinetd[{pid}]: START: sgi_fam pid={pid} from={ip}"},
          {"crond(pam_unix)[{pid}]: session opened for user root by "
           "(uid={int:0-1000})"},
          {"crond(pam_unix)[{pid}]: session closed for user root"},
          {"kernel: pci_hotplug: PCI Hot Plug PCI Core version: "
           "{int:0-9}.{int:0-9}"},
      },
      1.05};
}

DatasetSpec mac() {
  return {
      "Mac",
      "{ts_syslog} authorMacBook-Pro ",
      {
          {"kernel[0]: ARPT: {float}: wl0: MDNS: IPV6 Addr: {ipv6}"},
          {"kernel[0]: ARPT: {float}: wl0: MDNS: IPV4 Addr: {ip}"},
          {"kernel[0]: ARPT: {float}: AirPort_Brcm43xx::syncPowerState: "
           "WWEN[enabled]"},
          {"kernel[0]: AppleCamIn::{oneof:systemWakeCall|handleWakeEvent} - "
           "messageType = 0x{hex:8}"},
          {"kernel[0]: RTC: PowerByCalendarDate setting ignored"},
          {"corecaptured[{pid}]: CCFile::captureLogRun Skipping current "
           "file Dir file [{ts_iso}.{int:100-999}]-AirPortBrcm4360_Logs-"
           "{int:0-99}.txt, Current File [{ts_iso}.{int:100-999}]-"
           "AirPortBrcm4360_Logs-{int:0-99}.txt"},
          {"QQ[{pid}]: FA||Url||taskID[{int}] dealloc"},
          {"Microsoft Word[{pid}]: CGSTrackingRegionSetIsEnabled: Invalid "
           "tracking region index: {int:0-99}"},
          {"com.apple.xpc.launchd[1] (com.apple.xpc.launchd.domain.pid."
           "WebContent.{pid}): Path not allowed in target domain: type = "
           "pid, path = {path} error = 147: The specified service did not "
           "ship in the requestor's bundle, origin = {path}"},
          {"WindowServer[{pid}]: CGXDisplayDidWakeNotification [{int}]: "
           "posting kCGSDisplayDidWake"},
          {"kernel[0]: Wake reason: RTC (Alarm)"},
          {"kernel[0]: Previous sleep cause: {int:0-9}"},
          {"sharingd[{pid}]: {int:10-59}.{int:100-999} : SDStatusMonitor::"
           "kStatusWifiPowerChanged"},
          {"kernel[0]: PM response took {int} ms (54, powerd)"},
          {"symptomsd[{pid}]: __73-[NetworkAnalyticsEngine "
           "observeValueForKeyPath:ofObject:change:context:]_block_invoke "
           "unexpected switch value {int:1-9}"},
          {"secd[{pid}]:  securityd_xpc_dictionary_handler EscrowSecurityAl"
           "[{int}] DeviceInCircle Device failed to enter circle"},
          {"UserEventAgent[{pid}]: Captive: CNPluginHandler en{int:0-1}: "
           "Inactive"},
          {"mDNSResponder[{pid}]: mDNS_DeregisterInterface: Frequent "
           "transitions for interface en{int:0-1} ({ip})"},
          {"kernel[0]: AirPort: Link Down on awdl0. Reason 1 "
           "(Unspecified)."},
          {"kernel[0]: IO80211AWDLPeerManager::setAwdlOperatingMode Setting "
           "the AWDL operation mode from AUTO to SUSPENDED"},
          {"networkd[{pid}]: nw_interface_add_to_generation_array "
           "[Generation {int}] adding interface en{int:0-1}"},
          {"com.apple.cts[{pid}]: com.apple.suggestions.harvest: scheduler_"
           "evaluate_activity told me to run this job; however, but the "
           "start time isn't for {int} seconds. Ignoring."},
      },
      1.05};
}

DatasetSpec android() {
  return {
      "Android",
      "{ts_android} {int:1000-9999} {int:1000-9999} ",
      {
          {"D PowerManagerService: acquireWakeLockInternal: lock=1{int}, "
           "flags=0x{hex:1}, tag=\"RILJ_ACK_WL\", ws=null, uid={int:1000-"
           "9999}, pid={pid}"},
          {"D PowerManagerService: ready=true,policy={int:1-3},wakefulness="
           "{int:0-2},wksummary=0x{hex:2},uasummary=0x{hex:1},bootcompleted="
           "true,boostinprogress=false,waitmodeenable=false,mode=false,manual"
           "={int:10-99},auto=-1,adj={float}userId={int:0-99}"},
          {"I ActivityManager: START u0 cmp={word}.android/.{word}"
           "Activity from uid {int:1000-99999} pid {pid} "
           "{oneof:focused|unfocused}"},
          {"D AlarmManager: Kernel timezone updated to {int:0-720} "
           "minutes west of GMT"},
          {"D WificondControl: Scan {opt:single }result ready event"},
          {"V WindowManager: Relayout Window(v0x{hex:7} u0 com.android."
           "systemui/com.android.systemui.{word}): viewVisibility=0 req="
           "{int:100-3000}x{int:100-3000} WM.LayoutParams"},
          {"I PowerManager_screenOn: DisplayPowerStatesetColorFadeLevel: "
           "level={float}"},
          {"D BatteryService: level:{int:0-100}, scale:100, status:{int:1-"
           "5}, health:2, present:true, voltage: {int:3500-4400}, "
           "temperature: {int:200-450}"},
          {"E memtrack: Couldn't load memtrack module"},
          {"W system_server: Long monitor contention with owner Binder:"
           "{pid}_{int:1-9} ({pid}) at void com.android.server.am."
           "ActivityManagerService${word}.run()(ActivityManagerService.java:"
           "{int:1000-30000}) waiters={int:0-9} in void com.android.server."
           "am.ActivityManagerService.onWakefulnessChanged(int) for {float}s"},
          {"I chatty: uid={int:1000-9999}({word}) expire {int:1-99} lines"},
          {"D audio_hw_primary: disable_audio_route: reset and update mixer "
           "path: low-latency-playback"},
          {"D SensorService: SensorDevice::activating sensor handle={int:0-"
           "99} name={word}"},
          {"I ThermalEngine: Sensor:batt_therm:{int:20000-45000} mC"},
          {"D DisplayPowerController: updatePowerState mPendingRequestLocked"
           "=policy={int:1-3}, useProximitySensor=false, screenBrightness="
           "{int:1-255}"},
          {"W InputReader: Device has associated, but no associated display "
           "id."},
          {"E QC-time-services: Daemon: ats_rtc_diff cannot be read. "
           "Initialize to zero"},
          {"V KeyguardStatusView: refresh statusview showing:true"},
      },
      1.05};
}

DatasetSpec healthapp() {
  return {
      "HealthApp",
      "{ts_healthapp}|",
      {
          {"Step_LSC|{int:30000000-39999999}|onStandStepChanged {int}"},
          {"Step_LSC|{int:30000000-39999999}|onExtend:{int} {int:100-199} "
           "{int:100-199} {int}"},
          {"Step_SPUtils|{int:30000000-39999999}|setTodayTotalDetailSteps = "
           "{int}##{int:0-9}##{int}##{int}##{int}##{int}"},
          {"Step_StandReportReceiver|{int:30000000-39999999}|REPORT : {int} "
           "{int:0-99} {int} {int}"},
          {"Step_ExtSDM|{int:30000000-39999999}|calculateCaloriesWithCache "
           "totalCalories={int}"},
          {"Step_ExtSDM|{int:30000000-39999999}|calculateAltitudeWithCache "
           "totalAltitude={int:0-999}"},
          {"Step_SPUtils|{int:30000000-39999999}|getTodayTotalDetailSteps = "
           "{int}##{int:0-9}##{int}##{int}##{int}##{int}"},
          {"HiH_HiHealthDataSdk|{int:30000000-39999999}|aggregateData() "
           "sessionId={int:0-999}"},
          {"Step_PDMUtil|{int:30000000-39999999}|OnDataResult success "
           "errorCode = {int:0-9} count = {int:0-999}"},
          {"Step_StandStepCounter|{int:30000000-39999999}|flush sensor "
           "data"},
      },
      1.1};
}

DatasetSpec apache() {
  return {
      "Apache",
      "[{ts_apache}] ",
      {
          {"[notice] jk2_init() Found child {pid} in scoreboard slot "
           "{int:0-99}"},
          {"[notice] workerEnv.init() ok /etc/httpd/conf/workers2."
           "properties"},
          {"[error] mod_jk child workerEnv in error state {int:1-9}"},
          {"[error] [client {ip}] Directory index forbidden by rule: "
           "/var/www/html/"},
          {"[error] jk2_init() Can't find child {pid} in scoreboard"},
          {"[error] mod_jk child init {int:1-3} -{int:0-2}"},
      },
      1.0};
}

DatasetSpec openssh() {
  return {
      "OpenSSH",
      "{ts_syslog} LabSZ sshd[{pid}]: ",
      {
          {"Failed password for invalid user {word} from {ip} port {port} "
           "ssh2"},
          {"Failed password for root from {ip} port {port} ssh2"},
          {"pam_unix(sshd:auth): authentication failure; logname= uid=0 "
           "euid=0 tty=ssh ruser= rhost={ip}  user=root"},
          {"pam_unix(sshd:auth): authentication failure; logname= uid=0 "
           "euid=0 tty=ssh ruser= rhost={ip}"},
          {"Received disconnect from {ip}: 11: Bye Bye [preauth]"},
          {"Received disconnect from {ip}: 11: disconnected by user"},
          {"Invalid user {word} from {ip}"},
          {"input_userauth_request: invalid user {word} [preauth]"},
          {"Connection closed by {ip} [preauth]"},
          {"reverse mapping checking getaddrinfo for {host} [{ip}] failed "
           "- POSSIBLE BREAK-IN ATTEMPT!"},
          {"Accepted password for {word} from {ip} port {port} ssh2"},
          {"pam_unix(sshd:session): session opened for user {word} by "
           "(uid={int:0-1000})"},
          {"error: Received disconnect from {ip}: 3: com.jcraft.jsch."
           "JSchException: Auth fail [preauth]"},
          {"Did not receive identification string from {ip}"},
          {"PAM service(sshd) ignoring max retries; {int:4-9} > 3"},
          {"Disconnecting: Too many authentication failures for admin "
           "[preauth]"},
          {"PAM {int:1-5} more authentication failures; logname= uid=0 "
           "euid=0 tty=ssh ruser= rhost={ip}  user=root"},
          {"message repeated {int:2-9} times: [ Failed password for root "
           "from {ip} port {port} ssh2]"},
          {"fatal: Read from socket failed: Connection reset by peer "
           "[preauth]"},
          {"error: connect_to {ip} port {port}: failed."},
      },
      1.1};
}

DatasetSpec proxifier() {
  return {
      "Proxifier",
      "[{ts_proxifier}] ",
      {
          // The {intstar} fields reproduce the alphanumeric/integer
          // alternation that yields "two patterns created for one event,
          // rendering nearly 50% of the results invalid" on raw logs.
          {"chrome.exe - proxy.cse.cuhk.edu.hk:{port} open {opt:again }through "
           "proxy proxy.cse.cuhk.edu.hk:5070 HTTPS"},
          {"chrome.exe - proxy.cse.cuhk.edu.hk:{port} close, {intstar} "
           "bytes sent, {intstar} bytes received, lifetime {dur:colon}"},
          {"chrome.exe *64 - proxy.cse.cuhk.edu.hk:{port} open through "
           "proxy proxy.cse.cuhk.edu.hk:5070 HTTPS"},
          {"chrome.exe *64 - proxy.cse.cuhk.edu.hk:{port} close, {intstar} "
           "bytes sent, {intstar} bytes received, lifetime {dur:colon}"},
          {"{word}.exe - {host}:{port} error : Could not connect through "
           "proxy proxy.cse.cuhk.edu.hk:5070 - Proxy server cannot "
           "establish a connection with the target, status code {int:400-"
           "599}"},
          {"{word}.exe - {host}:{port} open directly"},
          {"{word}.exe - {host}:{port} close, {intstar} bytes sent, "
           "{intstar} bytes received, lifetime {dur:colon}"},
          {"proxy.cse.cuhk.edu.hk:{port} HTTPS"},
      },
      1.0};
}

}  // namespace

const std::vector<DatasetSpec>& loghub_datasets() {
  static const std::vector<DatasetSpec> kDatasets = {
      hdfs(),     hadoop(),      spark(),   zookeeper(),
      openstack(), bgl(),        hpc(),     thunderbird(),
      windows(),  linux(),       mac(),     android(),
      healthapp(), apache(),     openssh(), proxifier(),
  };
  return kDatasets;
}

const DatasetSpec* find_dataset(std::string_view name) {
  for (const DatasetSpec& spec : loghub_datasets()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

eval::LabeledCorpus generate_corpus(const DatasetSpec& spec, std::size_t n,
                                    std::uint64_t seed) {
  eval::LabeledCorpus corpus;
  corpus.name = spec.name;
  corpus.messages.reserve(n);
  corpus.preprocessed.reserve(n);
  corpus.event_ids.reserve(n);

  GenContext ctx{util::Rng(seed)};
  const util::ZipfSampler zipf(spec.events.size(), spec.zipf_s);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t event = zipf.sample(ctx.rng);
    std::string raw;
    std::string pre;
    // Header renders only into the raw variant: the logparser benchmark
    // strips headers before handing content to the algorithms.
    expand_template(spec.header, ctx, &raw, nullptr);
    expand_template(spec.events[event].format, ctx, &raw, &pre);
    corpus.messages.push_back(std::move(raw));
    corpus.preprocessed.push_back(std::move(pre));
    corpus.event_ids.push_back('E' + std::to_string(event + 1));
    ctx.clock += ctx.rng.uniform(0, 3);
  }
  return corpus;
}

}  // namespace seqrtg::loggen
