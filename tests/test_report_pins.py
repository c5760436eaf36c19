"""Report bytes pinned across commits.

Each subcommand runs once at a small seeded argv, in CSV and in JSON,
and the SHA-256 of its report must equal the digest recorded here. A
change that alters any reported value, its formatting or its order
breaks the pin; a deliberate change of the report records new digests.
The corpus is given by name through UNICITY_CORPUS_DIR, so the config
embedded in each report does not depend on where the checkout lives.

Digests were taken with numpy 2.4.6. The seeded draws (PCG64 streams,
`permutation`, `integers`) are stable across numpy releases in
practice, but numpy does not promise it; on another numpy version a
mismatch here should first be checked against a run of the parent
commit.

The --help text of the program and of each subcommand is pinned the same
way, at COLUMNS=80, so that a new flag or a changed default shows as a
broken pin. Those digests were taken with Python 3.11.7; argparse's
layout differs between Python releases, so on another version a mismatch
here should first be checked against a run of the parent commit.
"""

import hashlib

import pytest

from unicity.cli import main

from conftest import CORPUS_PATH

CORPUS = CORPUS_PATH.name
CIPHERTEXT = "QEBNRFZHYOLTKCLUGRJMPLSBOQEBIXWVALDQEBNRFZHYOLTKCLUGRJMPLSBOQEBIXWVALD"
TRUE_KEY = "XYZABCDEFGHIJKLMNOPQRSTUVW"

ARGVS = {
    "corpus-stats": ["corpus-stats", "--corpus", CORPUS, "--order", "2"],
    "unicity": ["unicity", "--redundancy", "3.2", "--n-max", "30"],
    "unicity-corpus": ["unicity", "--cipher", "shift", "--corpus", CORPUS, "--n-max", "5"],
    "spurious-exhaustive": ["spurious", "--alphabet-size", "4", "--length", "3,4",
                            "--rate", "1.0", "--constructions", "5", "--seed", "1"],
    "spurious-monte-carlo": ["spurious", "--mode", "monte-carlo", "--alphabet-size", "4",
                             "--length", "3", "--constructions", "3", "--trials", "5",
                             "--keys-per-trial", "20", "--seed", "1"],
    "spurious-monte-carlo-shift": ["spurious", "--mode", "monte-carlo", "--cipher", "shift",
                                   "--alphabet-size", "5", "--length", "3",
                                   "--constructions", "3", "--trials", "5",
                                   "--keys-per-trial", "7", "--seed", "2"],
    # one candidate per trial out of one wrong key: every other draw is the true key
    "spurious-monte-carlo-g2": ["spurious", "--mode", "monte-carlo", "--alphabet-size", "2",
                                "--length", "4", "--rate", "0.5", "--constructions", "3",
                                "--trials", "6", "--keys-per-trial", "1", "--seed", "3"],
    # 40 constructions of 210 key rows at each length: several blocks
    "spurious-monte-carlo-blocks": ["spurious", "--mode", "monte-carlo", "--alphabet-size", "5",
                                    "--length", "2,3", "--rate", "1.2", "--constructions", "40",
                                    "--trials", "7", "--keys-per-trial", "30", "--seed", "11"],
    "spurious-monte-carlo-blocks-shift": ["spurious", "--mode", "monte-carlo", "--alphabet-size",
                                          "5", "--length", "2,3", "--rate", "1.2",
                                          "--constructions", "40", "--trials", "7",
                                          "--keys-per-trial", "30", "--seed", "11",
                                          "--cipher", "shift"],
    "channel": ["channel", "--alphabet-size", "4", "--lengths", "1,2,3", "--seed", "1"],
    "attack-crack": ["attack", "--mode", "crack", "--corpus", CORPUS, "--ciphertext",
                     CIPHERTEXT, "--true-key", TRUE_KEY, "--iterations", "300",
                     "--restarts", "1", "--seed", "1"],
    "attack-curve": ["attack", "--corpus", CORPUS, "--lengths", "25,60", "--trials", "2",
                     "--iterations", "300", "--restarts", "1", "--seed", "1"],
}

DIGESTS = {
    ("attack-crack", "csv"): "46ebc50d5a240dc4b72889972712ac31e62fc126c564d185d24c0264850c3688",
    ("attack-crack", "json"): "dcda650c1e4f807aad9216e3158b55381031c52a2dffa3daec7e65717ad7a657",
    ("attack-curve", "csv"): "d99def25d35401df7dd545e4fc88b781ccb149685847092892a148305eb8bd6a",
    ("attack-curve", "json"): "25a131bd0e574a64563d0929c90167fdb98de192fdb1acd5033694d591e9aa37",
    ("channel", "csv"): "5c6ad16c94a4143bffc92f126bbc30d824ce2faee945cec1cdd20bfa07558b7a",
    ("channel", "json"): "d0e4942bd0d847bcf637069de999cd21c6dc70b86e253e6d7f5d61719aa57833",
    ("corpus-stats", "csv"): "df75e9de62ed22edac6e2768ba5a643a9c9fb02a21c957e24c64fdd3c2a698f0",
    ("corpus-stats", "json"): "e80b7c0a0b0b2a297f9d2b7b4f1d6e5ab9db974a80972dcb568cab2e3c372225",
    ("spurious-exhaustive", "csv"): "bf19539ac95267e3191f6cd03c91b72274b552fb45b984c10587bad5f5985f21",
    ("spurious-exhaustive", "json"): "fd18c153fa6eb0f311febf487df22f715352140fe8dcdcdf7c1b6a7f473d9d09",
    ("spurious-monte-carlo", "csv"): "72b395704335a339a726bbe2254ed7db25edb6b6a2ac5d0688a055a6eb8a9ed1",
    ("spurious-monte-carlo", "json"): "30ed878fde7a74ea8d72f23c26ff6510af767549af977a1eca60468c2b51bcd5",
    ("spurious-monte-carlo-blocks", "csv"): "c73882008a023f6dc1db5514ab37255d4bddcaec04f6e00346255140d089b5d3",
    ("spurious-monte-carlo-blocks", "json"): "bd413d9fe4cff2cdd56be74ec7e25f868eade9bc4d3728ae82a2fa2531fcd72d",
    ("spurious-monte-carlo-blocks-shift", "csv"): "92c7e757b2239777028c23351d235a5cc309f42d46b96e716021f89da91f14af",
    ("spurious-monte-carlo-blocks-shift", "json"): "0c7db1b02709e87f10b2bd18c38fa144d8456a9bfc9e1c2e282cdafb6b365b45",
    ("spurious-monte-carlo-g2", "csv"): "1ff4aa277bcafb6438df6e2f0aa04168248f9f8e003137f7c37b478a51769a8c",
    ("spurious-monte-carlo-g2", "json"): "a43be0411b9f7ce1eb1c1357296d66b03dcecc8b0c508dec30ea231172c547c9",
    ("spurious-monte-carlo-shift", "csv"): "1f26efc3599924ea4e95184523a38e25cb9150872d8a953d870478dba79817ef",
    ("spurious-monte-carlo-shift", "json"): "8a16ee28315586f527f7db29824a1436b91ee5c0367c1a21db9e325386bf642c",
    ("unicity", "csv"): "606243a6e4733b02356b1b70b53f065283856f608b7f0b2cf02a5b9f7af85645",
    ("unicity", "json"): "e7973aab3db89e5ff648f817c65660ac9fefcd66a97fc3765b6ed438d5bb7fb4",
    ("unicity-corpus", "csv"): "5ed90a46db437a965ddd79378fc739e435c8cac64a01f15754fbdff42f45e34b",
    ("unicity-corpus", "json"): "ef614bcefdd5b7c8975e2b160e88daa7d0743cf6a1464487551efb767bbcbd32",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(ARGVS))
def test_report_bytes_pinned(capsys, monkeypatch, tmp_path, name, fmt):
    monkeypatch.setenv("UNICITY_CORPUS_DIR", str(CORPUS_PATH.parent))
    monkeypatch.chdir(tmp_path)
    code = main([*ARGVS[name], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name, fmt]


HELP_DIGESTS = {
    "unicity": "981f7f5c5549c4280aa4565e3cec9180370e7ae5bf13903c20c690a4cd905713",
    "unicity corpus-stats": "f397babacdbf7ac2fc054cd8de7e4c0d23808a17a4f559119c473760c6327302",
    "unicity unicity": "b3259899130f4958177c18cae26d814536d20035c90d083d175aeb70253c4587",
    "unicity spurious": "76a06448d49e584e5c1d3ada3c04d4444d941c83dfbde9b2d802ac43f70ff6ce",
    "unicity channel": "1d800d1707484e0b08794150ba215826d23912db2a8f9b8b26c2862b4bc399bc",
    "unicity attack": "1f145423ae4a2cc0d89bff506b0001e10b845f50ed0fcc12b6ba1c94d23ba715",
}


@pytest.mark.parametrize("name", sorted(HELP_DIGESTS))
def test_help_bytes_pinned(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code = main([*name.split()[1:], "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[name]
