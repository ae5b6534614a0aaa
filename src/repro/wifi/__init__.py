"""802.11 substrate: PHY error model, MAC retransmissions, APs, PSM,
association management, and BSSID scanning.

The AP model (:mod:`repro.wifi.ap`) is the deployment-critical piece of the
paper: per-client PSM buffering with tail-drop or head-drop policy, a
settable maximum queue length signalled at association time, and the
hardware-queue flush behaviour responsible for DiversiFi's residual
duplication overhead.
"""

from repro.wifi.phy import MCS_TABLE, PhyConfig, frame_error_prob, select_mcs
from repro.wifi.mac import MacLayer
from repro.wifi.ap import AccessPoint, BufferedPacket
from repro.wifi.psm import PowerSaveClient
from repro.wifi.association import Association, VirtualAdapter, WifiManager
from repro.wifi.scan import BssEntry, ScanResult
from repro.wifi.beacon import Beacon, BeaconScheduler, StandardPsmClient
from repro.wifi.wmm import WmmAccessPoint

__all__ = [
    "AccessPoint",
    "Association",
    "Beacon",
    "BeaconScheduler",
    "BssEntry",
    "BufferedPacket",
    "MCS_TABLE",
    "MacLayer",
    "PhyConfig",
    "PowerSaveClient",
    "ScanResult",
    "StandardPsmClient",
    "VirtualAdapter",
    "WifiManager",
    "WmmAccessPoint",
    "frame_error_prob",
    "select_mcs",
]
