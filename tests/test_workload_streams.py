"""The operation streams, pinned byte for byte.

Every experiment's keys, values, items and GET/PUT coins come out of
:class:`repro.workloads.WorkloadStream`, so any change to the generator
(its batching, its mixing arithmetic, its memo) must leave each stream
exactly as it was.  The digests below were recorded from the numpy
generator this one replaced: 54 streams, {uniform, zipfian} x three key
universes x three GET/value mixes x three seeds, 3 000 ops each.
"""

import hashlib
import struct

import pytest

from repro.workloads import Workload

OPS = 3000

#: (distribution, n_keys, get_fraction, value_size, seed) -> sha256 of
#: the stream's first OPS operations, serialised by ``stream_digest``
PINNED = {
    ("uniform", 4096, 0.95, 32, 0): "e6906da8de78180735c1620aa99fa44c7cabf7e605a76669463f3986ae6d3e29",
    ("uniform", 4096, 0.95, 32, 1): "1e9dc72c2db83ebb925e13d3173be106503ca6f27a68166b36fbee6c26d11776",
    ("uniform", 4096, 0.95, 32, 12345): "eba7754537e69e73a4386d5666537e8a07cb33f1fdb41de34fdaf9abdd5b52bc",
    ("uniform", 4096, 0.50, 1000, 0): "31be909f526d8323e38a062cb7cd08a34e2395a6ab8d4aea3a763fa2645329af",
    ("uniform", 4096, 0.50, 1000, 1): "333304361d602847a496b5bf61ca55a58346133931c9e87f814348ad011364f8",
    ("uniform", 4096, 0.50, 1000, 12345): "8f7cc68163255f1869095fba9eede738ac550cd851270f6423d9c79820229199",
    ("uniform", 4096, 0.05, 13, 0): "d0601e8a063dfd8e8ef3f39c93674bf0a7ea061ef741cbabdcfdb906a2098685",
    ("uniform", 4096, 0.05, 13, 1): "4cb2ee089f04489b8a130ac71f31f84640b51722ce8effc0d10850cc149287a0",
    ("uniform", 4096, 0.05, 13, 12345): "ade6d332e160627922540cdff2b55f4bd00fcd997b699d49bcd142def34bf3b6",
    ("uniform", 65536, 0.95, 32, 0): "1edf09479e565d9b24183401999de4a9ed79427f507ee77330b61cc309f35f14",
    ("uniform", 65536, 0.95, 32, 1): "d42aff0eb3f1f9f22aa88e8a8d8574ede3be965a2ba0580353273d84f502aaa4",
    ("uniform", 65536, 0.95, 32, 12345): "20ca1dff12b01f66d5acf1aaa0d66cc2f75a63d1fb40e13934af1b1723b97911",
    ("uniform", 65536, 0.50, 1000, 0): "feafa8717825765b1a7d620798853012a10dd51708390dc22ab953b00c396700",
    ("uniform", 65536, 0.50, 1000, 1): "f05be7a8c7ff3e27de1c35b83e4a2d52d4864e3db8708563a8e7cb4cbe704939",
    ("uniform", 65536, 0.50, 1000, 12345): "4df95df63909747809687203ecba9c1c431d81637f3be44e01d2d945d86a5cf8",
    ("uniform", 65536, 0.05, 13, 0): "a489c124e53bb0c40ad0f8fbc623928f63dff734fe766c0f73c195adf48cdc75",
    ("uniform", 65536, 0.05, 13, 1): "80fcda69f3f0428b022db442684a67839d332ba4f5be57697688095901c1071e",
    ("uniform", 65536, 0.05, 13, 12345): "604d8b9785ecb01520a85348dba5d8e6f640b36a4b36553c50cdd5199d0a2763",
    ("uniform", 1048576, 0.95, 32, 0): "56d881e34360467a29a984c66d21a7d6598a184356f8aa48449ff6d9035845c2",
    ("uniform", 1048576, 0.95, 32, 1): "dff99caceddefef30dcdf3865b01e302091f25cb4745e6776c5dc912e63b41a7",
    ("uniform", 1048576, 0.95, 32, 12345): "a1a8262fa74ec1dd666b42b52331b35972d8b2c97107763ee021e3ae68e48994",
    ("uniform", 1048576, 0.50, 1000, 0): "b81b036d910ed810f9b414d8dceb5035d991aff46cf163ac305a087ec929c56f",
    ("uniform", 1048576, 0.50, 1000, 1): "7865dd724cfd56b5a862bb963fd04ac21d3b0af03651d7bd276416510bc00a8b",
    ("uniform", 1048576, 0.50, 1000, 12345): "9e381712207a7d20df2d4d5b06d33489164dc029ed05a8701dd1bead31b02f13",
    ("uniform", 1048576, 0.05, 13, 0): "3f710c663ea224d04e364f079ce5b18e4808474ffa3b4a74326913e8ca24fc67",
    ("uniform", 1048576, 0.05, 13, 1): "8ae80c3d50f88aa451be105763bb44e32614f3a75b233c701ceb05dbb3733613",
    ("uniform", 1048576, 0.05, 13, 12345): "00360a0140f19550e27ef47f01e802603f697b7c67595bf0a513bdf65269133a",
    ("zipfian", 4096, 0.95, 32, 0): "2ad4c6f02ad6a138dddc3b4293108c9aa513daf5241748345a465f12d3eb2ad5",
    ("zipfian", 4096, 0.95, 32, 1): "162a5610968a8015c87ce58aa329eee2694dcc459876af8d6c1b41d971a21849",
    ("zipfian", 4096, 0.95, 32, 12345): "a175ed2c36a5b2bf68bbef347080b5005bf04ef40c62e27d8fbe5ab5ba84bc2e",
    ("zipfian", 4096, 0.50, 1000, 0): "e8fcaea3440f8947e3a76961ab45ad10ee44559fd9719cd0f5060a88f4260ab9",
    ("zipfian", 4096, 0.50, 1000, 1): "f65ea2ab51fde325d62824d42df1cc62babfb7d271760c6e7142e3e78ef41a67",
    ("zipfian", 4096, 0.50, 1000, 12345): "fb3acaf7cdfe0d22f65fa89f6cdeabedfa99e9d4e04c19be80cbe587107a6b2a",
    ("zipfian", 4096, 0.05, 13, 0): "3cfcb6e79051ee95f0cfe5d0492d9c1f23311cd521cdf97c559482189ce8fcf9",
    ("zipfian", 4096, 0.05, 13, 1): "bc1ff922ba219160194659a947cd6c6a51ceca20ce2ad7f0da4919ea38815fbe",
    ("zipfian", 4096, 0.05, 13, 12345): "10bc30292e8e6f79e3a0e4b5fd6f73b77d6bc6e365769665b0f8ae0df87f2b1a",
    ("zipfian", 65536, 0.95, 32, 0): "c39e313b1671ce67bfd6d781467afa11697a08db2cacfdb6384bc5f1aef4e84e",
    ("zipfian", 65536, 0.95, 32, 1): "82d1b1f26439d9b8d54ab082c002a44e28cab4441848846449b41df32562da82",
    ("zipfian", 65536, 0.95, 32, 12345): "c0e7b93f9553e8a7838b96673af39b784047e0944cf493edb9284ad735300cf1",
    ("zipfian", 65536, 0.50, 1000, 0): "7e2929ea2d8257390dd6f44ac5f4936c008a2fef9db2c91de68b7fdc3dcf5745",
    ("zipfian", 65536, 0.50, 1000, 1): "aa1d7494bb742e2109a6869c71a7e2efaeb80a139a6d1b82474e16574f583f9d",
    ("zipfian", 65536, 0.50, 1000, 12345): "19f79cfc1e050a16827d3fbf6c1092f594794c575325dc0d76daeca51849f0c1",
    ("zipfian", 65536, 0.05, 13, 0): "a2991de947ed8fee31650ef5e3887bdfb8b2bbdc6b65747f4e573bc61e4f63cc",
    ("zipfian", 65536, 0.05, 13, 1): "c05e60c2fa479ae10c76dc42fad833032c284d2ba7d16e32f591908d8a43905d",
    ("zipfian", 65536, 0.05, 13, 12345): "27600a48d6e6f1fe05743c756d35c04e13f4de4ff3df47716757937334e61c55",
    ("zipfian", 1048576, 0.95, 32, 0): "0ee17f995d9a55c268e903fc8ab47c35ea0ae0e6eaa03d6de53225cb1f8bb47d",
    ("zipfian", 1048576, 0.95, 32, 1): "c64424241f0c4614be57d3789bcc5d6355b49156584c6e5b9bee571428278f70",
    ("zipfian", 1048576, 0.95, 32, 12345): "9e6b041281b1c15818f900a9a07e518b9ef5e82039aca711732806cc86181ba6",
    ("zipfian", 1048576, 0.50, 1000, 0): "c59ac989fafa26083629c0a2c1953f0ca4bf0ae5d3c161569e14167fd6b81d14",
    ("zipfian", 1048576, 0.50, 1000, 1): "14c501ba12815cdca6cf8176eb85cc2ef981909b5e14818ac79fa53388b6410e",
    ("zipfian", 1048576, 0.50, 1000, 12345): "e5a399972e8cba3751f644160bc79d935ff6a3ed72e7f80f69e3d333923564a1",
    ("zipfian", 1048576, 0.05, 13, 0): "b440d7172877a05efec2d2c5138d6e8453701d3e435222dadac5bdcc6beec0d0",
    ("zipfian", 1048576, 0.05, 13, 1): "b4abb3d82c7c85062258b75698a3bcf578320f53d8855480150844efcdb85d1b",
    ("zipfian", 1048576, 0.05, 13, 12345): "e21b02617736b757abf06100cc1ef30a9ebb7a8aafb8039ddf3a1bab67cbb0da",
}


def stream_digest(workload, seed, count=OPS):
    """sha256 over ``count`` ops: coin (with the value for a PUT),
    keyhash and item, each in a fixed-width encoding."""
    digest = hashlib.sha256()
    next_op = workload.stream(seed).next_op
    for _ in range(count):
        op = next_op()
        value = op.value
        digest.update(b"G" if value is None else b"P" + struct.pack("<H", len(value)) + value)
        digest.update(op.key)
        digest.update(struct.pack("<Q", op.item))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "distribution, n_keys, get_fraction, value_size, seed",
    sorted(PINNED),
)
def test_op_stream_is_pinned(distribution, n_keys, get_fraction, value_size, seed):
    workload = Workload(
        get_fraction=get_fraction, value_size=value_size,
        n_keys=n_keys, distribution=distribution,
    )
    assert stream_digest(workload, seed) == PINNED[
        distribution, n_keys, get_fraction, value_size, seed
    ]
